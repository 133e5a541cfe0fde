//! Statistics helpers used across the simulator.

/// Ratio helper: `num / den`, or 0 when the denominator is zero.
#[inline]
pub fn safe_div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_div_handles_zero() {
        assert_eq!(safe_div(1.0, 0.0), 0.0);
        assert_eq!(safe_div(6.0, 3.0), 2.0);
    }
}
