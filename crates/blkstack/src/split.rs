//! I/O splitting: oversized bios become multiple per-command requests.
//!
//! The block layer caps a single device command at `max_bytes` (the
//! `max_sectors` limit). Larger bios split into consecutive extents. As the
//! paper observes (§2.3), splitting does *not* cure the multi-tenancy issue:
//! the split parts sit consolidated in the same NSQ and cost the controller
//! no less effort than the original bulky request — the model preserves this
//! because each extent becomes its own in-order NVMe command.

use dd_nvme::spec::{bytes_to_blocks, BLOCK_BYTES};

/// Splitting parameters.
#[derive(Clone, Copy, Debug)]
pub struct SplitConfig {
    /// Maximum bytes per device command.
    pub max_bytes: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        // 128 KiB: typical max_sectors_kb for NVMe and exactly the paper's
        // T-request size, so T-requests stay single commands.
        SplitConfig {
            max_bytes: 128 * 1024,
        }
    }
}

/// One split extent: a future NVMe command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Extent {
    /// Starting block (namespace-relative).
    pub slba: u64,
    /// Blocks in this extent.
    pub nlb: u32,
}

/// Splits `(offset_blocks, bytes)` into command-sized extents.
///
/// Yields one extent for dataless I/O (`bytes == 0`, i.e. flush) so every
/// bio maps to at least one command. The iterator knows its length up
/// front and allocates nothing.
pub fn split_extents(cfg: &SplitConfig, offset_blocks: u64, bytes: u64) -> Extents {
    let blocks = bytes_to_blocks(bytes);
    let max_blocks = (cfg.max_bytes / BLOCK_BYTES).max(1) as u32;
    Extents {
        slba: offset_blocks,
        blocks,
        max_blocks,
        left: blocks.div_ceil(max_blocks).max(1),
    }
}

/// The extents of one bio, in block order (see [`split_extents`]).
#[derive(Clone, Debug)]
pub struct Extents {
    /// Start of the next extent.
    slba: u64,
    /// Blocks not yet handed out.
    blocks: u32,
    max_blocks: u32,
    /// Extents not yet handed out.
    left: u32,
}

impl Iterator for Extents {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        if self.left == 0 {
            return None;
        }
        let nlb = self.blocks.min(self.max_blocks);
        let e = Extent {
            slba: self.slba,
            nlb,
        };
        self.slba += u64::from(nlb);
        self.blocks -= nlb;
        self.left -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Extents {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bio_is_one_extent() {
        let e: Vec<_> = split_extents(&SplitConfig::default(), 10, 4096).collect();
        assert_eq!(e, vec![Extent { slba: 10, nlb: 1 }]);
    }

    #[test]
    fn exact_max_is_one_extent() {
        let e: Vec<_> = split_extents(&SplitConfig::default(), 0, 128 * 1024).collect();
        assert_eq!(e, vec![Extent { slba: 0, nlb: 32 }]);
    }

    #[test]
    fn oversized_bio_splits_contiguously() {
        let e: Vec<_> = split_extents(&SplitConfig::default(), 100, 300 * 1024).collect();
        // 300 KiB = 75 blocks → 32 + 32 + 11.
        assert_eq!(e.len(), 3);
        assert_eq!(e[0], Extent { slba: 100, nlb: 32 });
        assert_eq!(e[1], Extent { slba: 132, nlb: 32 });
        assert_eq!(e[2], Extent { slba: 164, nlb: 11 });
    }

    #[test]
    fn split_conserves_blocks() {
        for bytes in [1u64, 4096, 4097, 131072, 131073, 1 << 20] {
            let e: Vec<_> = split_extents(&SplitConfig::default(), 0, bytes).collect();
            let total: u64 = e.iter().map(|x| x.nlb as u64).sum();
            assert_eq!(total, bytes_to_blocks(bytes) as u64, "bytes={bytes}");
            // Extents are consecutive.
            let mut next = 0u64;
            for x in &e {
                assert_eq!(x.slba, next);
                next += x.nlb as u64;
            }
        }
    }

    #[test]
    fn flush_gets_one_dataless_extent() {
        let e: Vec<_> = split_extents(&SplitConfig::default(), 0, 0).collect();
        assert_eq!(e, vec![Extent { slba: 0, nlb: 0 }]);
    }
}
