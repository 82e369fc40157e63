//! Minimal complex arithmetic for the Faddeeva kernels.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number in `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Construct from parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The imaginary unit.
    pub const I: C64 = C64::new(0.0, 1.0);

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex exponential.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Square root (principal branch).
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im = ((r - self.re) * 0.5).max(0.0).sqrt();
        Self::new(re, if self.im >= 0.0 { im } else { -im })
    }

    /// Scale by a real.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    fn div(self, o: C64) -> C64 {
        let d = o.norm_sqr();
        C64::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64::new(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z * C64::new(3.0, 4.0), C64::new(25.0, 0.0));
        assert!(close(z / z, C64::new(1.0, 0.0), 1e-15));
        assert_eq!(C64::I * C64::I, C64::new(-1.0, 0.0));
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = C64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(z, C64::new(-1.0, 0.0), 1e-15));
    }

    #[test]
    fn sqrt_squares_back() {
        for z in [
            C64::new(2.0, 3.0),
            C64::new(-1.0, 0.5),
            C64::new(-4.0, -0.1),
            C64::new(0.0, 1.0),
        ] {
            let s = z.sqrt();
            assert!(close(s * s, z, 1e-12), "{z:?}");
            assert!(s.re >= 0.0, "principal branch");
        }
    }
}
