//! The board's on-board memory: `M_max` bounds-checked words that keep
//! intermediate data while the FPGA is reconfigured. The sequencers in
//! [`crate::host`] stage every batch through a [`MemoryBank`] and charge
//! `D_m` per transferred word and `CT` per reload in their
//! [`crate::TimeReport`].

use std::fmt;

/// Errors from board operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// Memory access beyond `M_max`.
    OutOfBounds {
        /// First offending word address.
        address: u64,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::OutOfBounds { address } => {
                write!(f, "memory access at word {address} is out of bounds")
            }
        }
    }
}

impl std::error::Error for BoardError {}

/// The on-board memory bank (`M_max` words of `memory_word_bits` each).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBank {
    words: Vec<i32>,
}

impl MemoryBank {
    /// Creates a zeroed bank of `capacity` words.
    pub fn new(capacity: u64) -> Self {
        MemoryBank {
            words: vec![0; capacity as usize],
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64
    }

    /// Reads a contiguous range.
    ///
    /// # Errors
    ///
    /// [`BoardError::OutOfBounds`] when the range exceeds capacity.
    pub fn read(&self, address: u64, len: u64) -> Result<&[i32], BoardError> {
        let end = address + len;
        if end > self.capacity() {
            return Err(BoardError::OutOfBounds { address: end - 1 });
        }
        Ok(&self.words[address as usize..end as usize])
    }

    /// Writes a contiguous range.
    ///
    /// # Errors
    ///
    /// [`BoardError::OutOfBounds`] when the range exceeds capacity.
    pub fn write(&mut self, address: u64, data: &[i32]) -> Result<(), BoardError> {
        let end = address + data.len() as u64;
        if end > self.capacity() {
            return Err(BoardError::OutOfBounds { address: end - 1 });
        }
        self.words[address as usize..end as usize].copy_from_slice(data);
        Ok(())
    }

    /// A mutable view of a contiguous range, bounds-checked once — the
    /// fused store phase writes history rows and their bank mirror in the
    /// same pass through this view instead of issuing per-row
    /// [`MemoryBank::write`] calls.
    ///
    /// # Errors
    ///
    /// [`BoardError::OutOfBounds`] when the range exceeds capacity.
    pub fn region_mut(&mut self, address: u64, len: u64) -> Result<&mut [i32], BoardError> {
        let end = address + len;
        if end > self.capacity() {
            return Err(BoardError::OutOfBounds { address: end - 1 });
        }
        Ok(&mut self.words[address as usize..end as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_round_trip() {
        let mut bank = MemoryBank::new(1024);
        bank.write(100, &[1, -2, 3]).unwrap();
        assert_eq!(bank.read(100, 3).unwrap(), &[1, -2, 3]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut bank = MemoryBank::new(1024);
        let cap = bank.capacity();
        assert_eq!(
            bank.write(cap - 1, &[1, 2]),
            Err(BoardError::OutOfBounds { address: cap })
        );
        assert!(bank.write(cap - 2, &[1, 2]).is_ok());
        assert_eq!(
            bank.read(cap - 1, 2),
            Err(BoardError::OutOfBounds { address: cap })
        );
    }
}
