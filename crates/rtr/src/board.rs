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

    /// Like [`MemoryBank::write_strided`], but reading each row out of a
    /// strided source image instead of contiguous rows: row `i` is
    /// `src[i*src_stride + src_offset..][..width]`, landing at
    /// `offset + i*stride`. This lets the store phase mirror a whole chunk
    /// of history rows into the bank with one bounds check instead of one
    /// bank call per slot.
    ///
    /// # Errors
    ///
    /// [`BoardError::OutOfBounds`] when any destination row exceeds
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics when `src.len()` is not a multiple of `src_stride`, a source
    /// row would overrun its stride, or `width` exceeds `stride`.
    pub fn write_strided_from(
        &mut self,
        offset: u64,
        stride: u64,
        width: usize,
        src: &[i32],
        src_stride: usize,
        src_offset: usize,
    ) -> Result<(), BoardError> {
        assert!(width as u64 <= stride, "strided rows must not overlap");
        assert!(
            src_offset + width <= src_stride,
            "source row exceeds its stride"
        );
        assert_eq!(src.len() % src_stride.max(1), 0, "src must be whole rows");
        let rows = src.len().checked_div(src_stride).unwrap_or(0);
        if rows == 0 || width == 0 {
            return Ok(());
        }
        let last_end = offset + (rows as u64 - 1) * stride + width as u64;
        if last_end > self.capacity() {
            return Err(BoardError::OutOfBounds {
                address: last_end - 1,
            });
        }
        for (i, row) in src.chunks_exact(src_stride).enumerate() {
            let at = (offset + i as u64 * stride) as usize;
            self.words[at..at + width].copy_from_slice(&row[src_offset..src_offset + width]);
        }
        Ok(())
    }

    /// Writes `data` as whole rows of `width` words placed `stride` words
    /// apart starting at `offset` — the store-all phase scattering a
    /// contiguous per-batch buffer back into the bank's strided layout in
    /// one bounds-checked call.
    ///
    /// # Errors
    ///
    /// [`BoardError::OutOfBounds`] when the last row exceeds capacity.
    ///
    /// # Panics
    ///
    /// Panics when `width` exceeds `stride` (rows would overlap) or
    /// `data.len()` is not a multiple of `width`.
    pub fn write_strided(
        &mut self,
        offset: u64,
        stride: u64,
        width: usize,
        data: &[i32],
    ) -> Result<(), BoardError> {
        assert!(width as u64 <= stride, "strided rows must not overlap");
        assert_eq!(data.len() % width.max(1), 0, "data must be whole rows");
        let rows = data.len().checked_div(width).unwrap_or(0);
        if rows == 0 {
            return Ok(());
        }
        let last_end = offset + (rows as u64 - 1) * stride + width as u64;
        if last_end > self.capacity() {
            return Err(BoardError::OutOfBounds {
                address: last_end - 1,
            });
        }
        for (i, row) in data.chunks_exact(width).enumerate() {
            let at = (offset + i as u64 * stride) as usize;
            self.words[at..at + width].copy_from_slice(row);
        }
        Ok(())
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
