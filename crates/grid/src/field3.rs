//! Flat-indexed 3-D scalar fields.
//!
//! Storage is a single `Vec<f64>` indexed `x + nx*(y + ny*z)` — contiguous
//! x-lines, z the slowest axis — so every z-slab and every x-line is a
//! contiguous memory block the solvers can take as a plain slice.

/// A dense `nx × ny × nz` scalar field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
}

impl Field3 {
    /// A field of the given shape filled with `fill`.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn new(nx: usize, ny: usize, nz: usize, fill: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "zero-sized field");
        Field3 {
            nx,
            ny,
            nz,
            data: vec![fill; nx * ny * nz],
        }
    }

    /// Shape as `(nx, ny, nz)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Never true (construction rejects empty shapes).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Read cell `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.idx(x, y, z)]
    }

    /// Write cell `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Borrow the raw data.
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw data.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute difference against another field of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Field3) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_x_fastest() {
        let f = Field3::new(4, 5, 6, 0.0);
        let mut i = 0;
        for z in 0..6 {
            for y in 0..5 {
                for x in 0..4 {
                    assert_eq!(f.idx(x, y, z), i);
                    i += 1;
                }
            }
        }
        assert_eq!(i, f.len());
    }

    #[test]
    fn get_set() {
        let mut f = Field3::new(3, 3, 3, 1.0);
        f.set(1, 2, 0, 7.5);
        assert_eq!(f.get(1, 2, 0), 7.5);
        assert_eq!(f.get(0, 0, 0), 1.0);
    }

    #[test]
    fn max_diff() {
        let a = Field3::new(2, 2, 2, 1.0);
        let mut b = Field3::new(2, 2, 2, 1.0);
        b.set(0, 0, 0, 3.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn max_diff_rejects_shape_mismatch() {
        Field3::new(2, 2, 2, 0.0).max_abs_diff(&Field3::new(2, 2, 3, 0.0));
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_rejected() {
        Field3::new(0, 2, 2, 0.0);
    }
}
