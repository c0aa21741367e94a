//! Persistence for hub labels: the flat container (DESIGN.md §11).
//!
//! Label construction is the expensive phase (minutes on large networks,
//! Fig. 9b); production deployments build once and ship the index. The
//! file is five sections behind the shared flat header:
//!
//! ```text
//! 0  entry offsets   (n + 1) × u64
//! 1  hub ranks       entries × u32   per-node runs, ascending
//! 2  distances       entries × u32   parallel to the ranks
//! 3  hub order       n × u32         order[rank] = hub, a permutation
//! 4  graph           1 × u64         fingerprint of the graph built for
//! ```
//!
//! This is header version 4. Version 3 lacked the graph fingerprint, so
//! nothing tied the labels to their graph; version 2 stored `u64`
//! distances and no order. Either is refused with `UnsupportedVersion`
//! rather than served against a graph it may not describe.

use crate::{is_permutation, next_id, HubLabels};
use roadnet::flat::{ensure, FlatError, FlatFile, FlatStreamWriter, FlatVec, FlatWriter, LoadMode};
use roadnet::NodeId;
use std::path::Path;

/// Magic for the flat hub-label container.
pub const FLAT_MAGIC: [u8; 8] = *b"FANNHL2\0";
const FLAT_VERSION: u32 = 4;

impl HubLabels {
    /// Serialize into the flat container.
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        let mut w = FlatWriter::new(FLAT_MAGIC, FLAT_VERSION);
        w.section(&self.offsets);
        w.section(&self.ranks);
        w.section(&self.dists);
        w.section(&self.order);
        w.section(&[self.graph]);
        w.finish()
    }

    /// Write the flat container to `path`, streaming each array straight
    /// to the file — no assembled in-memory copy.
    pub fn write_flat(&self, path: &Path) -> std::io::Result<()> {
        let mut w = FlatStreamWriter::create(path, FLAT_MAGIC, FLAT_VERSION, 5)?;
        w.section(&self.offsets)?;
        w.section(&self.ranks)?;
        w.section(&self.dists)?;
        w.section(&self.order)?;
        w.section(&[self.graph])?;
        w.finish()
    }

    /// Zero-copy load of a flat label index: the file is brought behind
    /// one aligned buffer (mapped when possible, see [`LoadMode::Auto`])
    /// and all four arrays are served directly from it. Validation only
    /// scans — no per-node allocation or decode pass.
    pub fn read_flat(path: &Path) -> Result<Self, FlatError> {
        Self::read_flat_with(path, LoadMode::Auto)
    }

    /// [`HubLabels::read_flat`] with an explicit backing [`LoadMode`].
    pub fn read_flat_with(path: &Path, mode: LoadMode) -> Result<Self, FlatError> {
        Self::from_flat(FlatFile::open(path, FLAT_MAGIC, FLAT_VERSION, mode)?)
    }

    /// Parse a flat label index from in-memory bytes (copies once into an
    /// aligned buffer; [`HubLabels::read_flat`] is the zero-copy path).
    pub fn from_flat_bytes(bytes: &[u8]) -> Result<Self, FlatError> {
        Self::from_flat(FlatFile::parse(bytes, FLAT_MAGIC, FLAT_VERSION)?)
    }

    fn from_flat(f: FlatFile) -> Result<Self, FlatError> {
        ensure(f.section_count() == 5, "label section count")?;
        let offsets: FlatVec<u64> = f.section(0)?;
        let ranks: FlatVec<u32> = f.section(1)?;
        let dists: FlatVec<u32> = f.section(2)?;
        let order: FlatVec<NodeId> = f.section(3)?;
        // Hoist the typed views onto plain slices once: the scans below
        // touch every label entry, and indexing through the `FlatVec`
        // handle would re-resolve the backing on each access.
        let off: &[u64] = &offsets;
        let rk: &[u32] = &ranks;
        ensure(!off.is_empty(), "label offsets empty")?;
        ensure(off[0] == 0, "label offsets origin")?;
        ensure(
            off.windows(2).all(|w| w[0] <= w[1]),
            "label offsets monotone",
        )?;
        ensure(
            off[off.len() - 1] as usize == rk.len(),
            "label offsets terminal",
        )?;
        ensure(rk.len() == dists.len(), "label array lengths")?;
        let n = off.len() - 1;
        ensure(
            off.windows(2).all(|w| {
                let label = &rk[w[0] as usize..w[1] as usize];
                label.windows(2).all(|r| r[0] < r[1])
                    && label.last().is_none_or(|&r| (r as usize) < n)
            }),
            "label ranks sorted",
        )?;
        ensure(is_permutation(&order, n), "label hub order")?;
        let graph = f.word(4, "label graph fingerprint length")?;
        Ok(HubLabels {
            offsets,
            ranks,
            dists,
            order,
            graph,
            id: next_id(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    fn sample() -> HubLabels {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_node(i as f64, (i % 3) as f64);
        }
        for i in 0..9 {
            b.add_edge(i, i + 1, 1 + i % 4);
        }
        b.add_edge(0, 9, 7);
        HubLabels::build(&b.build()).unwrap()
    }

    /// `sample()`'s four arrays as a container, after `edit` had its way
    /// with them.
    fn edited(
        edit: impl FnOnce(&mut Vec<u64>, &mut Vec<u32>, &mut Vec<u32>, &mut Vec<u32>),
    ) -> Vec<u8> {
        let hl = sample();
        let (mut off, mut rk) = (hl.offsets.to_vec(), hl.ranks.to_vec());
        let (mut ds, mut ord) = (hl.dists.to_vec(), hl.order.to_vec());
        edit(&mut off, &mut rk, &mut ds, &mut ord);
        let mut w = FlatWriter::new(FLAT_MAGIC, FLAT_VERSION);
        w.section(&off);
        w.section(&rk);
        w.section(&ds);
        w.section(&ord);
        w.section(&[hl.graph]);
        w.finish()
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match HubLabels::from_flat_bytes(bytes) {
            Err(FlatError::Corrupt(got)) => assert_eq!(got, what),
            other => panic!("expected Corrupt({what}), got {:?}", other.err()),
        }
    }

    #[test]
    fn roundtrip_preserves_distances() {
        let hl = sample();
        let path = std::env::temp_dir().join(format!("hublabel-rt-{}.v2", std::process::id()));
        hl.write_flat(&path).unwrap();
        let hl2 = HubLabels::read_flat(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(hl2 == hl);
        assert_eq!(hl2.order(), hl.order());
        assert_eq!(hl2.graph_fingerprint(), hl.graph_fingerprint());
        for s in 0..10 {
            for t in 0..10 {
                assert_eq!(hl2.distance(s, t), hl.distance(s, t));
            }
        }
    }

    #[test]
    fn flat_round_trip_is_identical() {
        let hl = sample();
        assert!(HubLabels::from_flat_bytes(&hl.to_flat_bytes()).unwrap() == hl);
        assert!(HubLabels::from_flat_bytes(&edited(|_, _, _, _| ())).unwrap() == hl);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bad = sample().to_flat_bytes();
        bad[0] = b'X';
        assert!(matches!(
            HubLabels::from_flat_bytes(&bad),
            Err(FlatError::BadMagic)
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        // Version 2 files (u64 distances, no stored order) must be refused,
        // not reinterpreted; so must anything from the future.
        for version in [2u8, 99] {
            let mut bytes = sample().to_flat_bytes();
            bytes[12] = version;
            assert!(matches!(
                HubLabels::from_flat_bytes(&bytes),
                Err(FlatError::UnsupportedVersion(v)) if v == version as u32
            ));
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample().to_flat_bytes();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                HubLabels::from_flat_bytes(&bytes[..cut]).is_err(),
                "cut={cut}"
            );
        }
        assert!(matches!(
            HubLabels::from_flat_bytes(&bytes[..bytes.len() - 5]),
            Err(FlatError::Misaligned(_))
        ));
    }

    #[test]
    fn rejects_oversized_declared_counts() {
        // A header declaring u32::MAX sections, or a section longer than
        // the file, must fail fast, not allocate.
        let mut bytes = sample().to_flat_bytes();
        bytes[16..20].copy_from_slice(&u32::MAX.to_ne_bytes());
        assert!(HubLabels::from_flat_bytes(&bytes).is_err());
        let mut bytes = sample().to_flat_bytes();
        bytes[32..40].copy_from_slice(&u64::MAX.to_ne_bytes());
        assert!(matches!(
            HubLabels::from_flat_bytes(&bytes),
            Err(FlatError::SectionBounds(0))
        ));
    }

    #[test]
    fn flat_rejects_unsorted_ranks() {
        let swapped = edited(|off, rk, _, _| {
            let v = (0..off.len() - 1)
                .find(|&v| off[v + 1] - off[v] >= 2)
                .expect("some label has two entries");
            rk.swap(off[v] as usize, off[v] as usize + 1);
        });
        assert_corrupt(&swapped, "label ranks sorted");
        // A rank no hub has would index past the order during a repair.
        let out_of_range = edited(|_, rk, _, ord| *rk.last_mut().unwrap() = ord.len() as u32);
        assert_corrupt(&out_of_range, "label ranks sorted");
    }

    #[test]
    fn flat_rejects_orders_that_are_not_permutations() {
        assert_corrupt(&edited(|_, _, _, ord| ord.truncate(9)), "label hub order");
        assert_corrupt(&edited(|_, _, _, ord| ord.push(3)), "label hub order");
        assert_corrupt(&edited(|_, _, _, ord| ord[0] = ord[1]), "label hub order");
        assert_corrupt(&edited(|_, _, _, ord| ord[4] = 10), "label hub order");
        assert_corrupt(&edited(|_, _, ds, _| ds.truncate(3)), "label array lengths");
    }

    #[test]
    fn fuzzed_corruption_never_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let base = sample().to_flat_bytes();
        let mut rng = StdRng::seed_from_u64(0x4858_4c42);
        for _ in 0..500 {
            let mut bytes = base.clone();
            // Mutate a few random bytes, sometimes truncate or extend.
            for _ in 0..rng.gen_range(1usize..8) {
                let at = rng.gen_range(0usize..bytes.len());
                bytes[at] = rng.gen_range(0u32..256) as u8;
            }
            if rng.gen_bool(0.3) {
                bytes.truncate(rng.gen_range(0usize..bytes.len()));
            } else if rng.gen_bool(0.1) {
                bytes.extend_from_slice(&base[..rng.gen_range(0usize..base.len())]);
            }
            // A typed error, or an index every query on which is in
            // bounds — never a panic or abort.
            if let Ok(hl) = HubLabels::from_flat_bytes(&bytes) {
                for s in 0..hl.num_nodes() as u32 {
                    let _ = hl.distance(s, 0);
                }
            }
        }
    }
}
