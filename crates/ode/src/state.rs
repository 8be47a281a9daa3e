//! State vectors for continuous systems.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense state vector of `f64` components.
///
/// `StateVec` is a thin newtype over `Vec<f64>` with the small amount of
/// vector arithmetic integration methods need (axpy, norms, lerp). It keeps
/// solver code honest about what is a state versus an arbitrary buffer.
///
/// # Examples
///
/// ```
/// use urt_ode::StateVec;
///
/// let a = StateVec::from_slice(&[1.0, 2.0]);
/// let b = StateVec::from_slice(&[3.0, 4.0]);
/// let c = &a + &b;
/// assert_eq!(c.as_slice(), &[4.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateVec(Vec<f64>);

impl StateVec {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        StateVec(vec![0.0; dim])
    }

    /// Copies a slice into a new state vector.
    pub fn from_slice(values: &[f64]) -> Self {
        StateVec(values.to_vec())
    }

    /// Dimension of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero dimension.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the components.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrows the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Extracts the underlying `Vec<f64>`.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// `self += alpha * other` (the BLAS *axpy* primitive).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &StateVec) {
        assert_eq!(self.dim(), other.dim(), "axpy dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales every component by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.0 {
            *a *= alpha;
        }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Whether every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|a| a.is_finite())
    }

    /// Linear interpolation: `(1 - alpha) * self + alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn lerp(&self, other: &StateVec, alpha: f64) -> StateVec {
        assert_eq!(self.dim(), other.dim(), "lerp dimension mismatch");
        StateVec(
            self.0.iter().zip(other.0.iter()).map(|(a, b)| (1.0 - alpha) * a + alpha * b).collect(),
        )
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.0.iter()
    }
}

impl fmt::Display for StateVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f64>> for StateVec {
    fn from(v: Vec<f64>) -> Self {
        StateVec(v)
    }
}

impl FromIterator<f64> for StateVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        StateVec(iter.into_iter().collect())
    }
}

impl Extend<f64> for StateVec {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl AsRef<[f64]> for StateVec {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl AsMut<[f64]> for StateVec {
    fn as_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

impl Index<usize> for StateVec {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.0[index]
    }
}

impl IndexMut<usize> for StateVec {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.0[index]
    }
}

impl Add<&StateVec> for &StateVec {
    type Output = StateVec;

    fn add(self, rhs: &StateVec) -> StateVec {
        assert_eq!(self.dim(), rhs.dim(), "add dimension mismatch");
        StateVec(self.0.iter().zip(rhs.0.iter()).map(|(a, b)| a + b).collect())
    }
}

impl Sub<&StateVec> for &StateVec {
    type Output = StateVec;

    fn sub(self, rhs: &StateVec) -> StateVec {
        assert_eq!(self.dim(), rhs.dim(), "sub dimension mismatch");
        StateVec(self.0.iter().zip(rhs.0.iter()).map(|(a, b)| a - b).collect())
    }
}

impl Mul<f64> for &StateVec {
    type Output = StateVec;

    fn mul(self, rhs: f64) -> StateVec {
        StateVec(self.0.iter().map(|a| a * rhs).collect())
    }
}

impl AddAssign<&StateVec> for StateVec {
    fn add_assign(&mut self, rhs: &StateVec) {
        self.axpy(1.0, rhs);
    }
}

impl<'a> IntoIterator for &'a StateVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for StateVec {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let z = StateVec::zeros(3);
        assert_eq!(z.dim(), 3);
        assert!(!z.is_empty());
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);

        let s = StateVec::from_slice(&[1.0, -2.0]);
        assert_eq!(s[1], -2.0);
        assert_eq!(s.into_inner(), vec![1.0, -2.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = StateVec::from_slice(&[1.0, 1.0]);
        let b = StateVec::from_slice(&[2.0, -1.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 0.5]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "axpy dimension mismatch")]
    fn axpy_panics_on_mismatch() {
        let mut a = StateVec::zeros(2);
        a.axpy(1.0, &StateVec::zeros(3));
    }

    #[test]
    fn norms() {
        let v = StateVec::from_slice(&[3.0, -4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn finite_detection() {
        assert!(StateVec::from_slice(&[1.0]).is_finite());
        assert!(!StateVec::from_slice(&[f64::NAN]).is_finite());
        assert!(!StateVec::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn lerp_midpoint() {
        let a = StateVec::from_slice(&[0.0, 10.0]);
        let b = StateVec::from_slice(&[2.0, 20.0]);
        assert_eq!(a.lerp(&b, 0.5).as_slice(), &[1.0, 15.0]);
        assert_eq!(a.lerp(&b, 0.0).as_slice(), a.as_slice());
        assert_eq!(a.lerp(&b, 1.0).as_slice(), b.as_slice());
    }

    #[test]
    fn arithmetic_operators() {
        let a = StateVec::from_slice(&[1.0, 2.0]);
        let b = StateVec::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
    }

    #[test]
    fn collect_and_display() {
        let v: StateVec = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.to_string(), "[0, 1, 2]");
    }
}
