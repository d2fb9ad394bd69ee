// Fixture: every fused multiply-add D004 must catch, plus the separate
// multiply and add (and plain AVX2) it must leave alone.
pub fn fused(a: f64, b: f64, c: f64) -> f64 {
    let x = a.mul_add(b, c);
    let y = f64::mul_add(a, b, c);
    x + y
}

#[target_feature(enable = "avx2,fma")]
pub fn intrinsics(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    let d = _mm256_fmadd_pd(a, b, c);
    _mm_fnmsub_sd(d, b, c)
}

pub fn neon(a: float64x2_t, b: float64x2_t, c: float64x2_t) -> float64x2_t {
    vfmaq_f64(a, b, c)
}

#[target_feature(enable = "avx2")]
pub fn separate(a: f64, b: f64, c: f64) -> f64 {
    let mul_add_count = 2.0; // only contains the name
    a * b + c + mul_add_count + _mm256_add_pd_like(a)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_compare_against_a_fused_reference() {
        assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
    }
}
