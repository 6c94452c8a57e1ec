//! Differential test of the paged `FlatMemory` against a word map: the
//! simplest memory with the same contract (unwritten words read 0, the low
//! three address bits are ignored, the footprint counts distinct words
//! written).

use hs_isa::FlatMemory;
use std::collections::HashMap;

/// The reference: one entry per written word.
#[derive(Clone, Default)]
struct WordMap(HashMap<u64, u64>);

impl WordMap {
    fn read(&self, addr: u64) -> u64 {
        self.0.get(&(addr & !7)).copied().unwrap_or(0)
    }

    fn write(&mut self, addr: u64, value: u64) {
        self.0.insert(addr & !7, value);
    }
}

/// xorshift64*: a seeded, dependency-free stream of test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PAGE_BYTES: u64 = 512;

/// An address from one of the shapes the test must cover. Most land in a
/// few pages, so reads find written words and writes overwrite them.
fn address(rng: &mut Rng) -> u64 {
    match rng.below(6) {
        // Within 24 bytes of a page boundary, on either side, unaligned.
        0 => (rng.below(8) * PAGE_BYTES)
            .wrapping_add(rng.below(48))
            .wrapping_sub(24),
        // Anywhere in eight consecutive pages, unaligned.
        1 | 2 => 0x1_0000 + rng.below(8 * PAGE_BYTES),
        // At or above 2^63: a page boundary there, and the top of memory.
        3 => (1 << 63) + rng.below(2 * PAGE_BYTES),
        4 => u64::MAX - rng.below(2 * PAGE_BYTES),
        // Anywhere at all.
        _ => rng.next(),
    }
}

fn value(rng: &mut Rng) -> u64 {
    // A third of the writes store zero, which still counts as written.
    if rng.below(3) == 0 {
        0
    } else {
        rng.next()
    }
}

fn assert_agree(mem: &FlatMemory, oracle: &WordMap, probes: impl IntoIterator<Item = u64>) {
    for addr in probes {
        assert_eq!(mem.read(addr), oracle.read(addr), "read {addr:#x}");
    }
    assert_eq!(mem.footprint_words(), oracle.0.len());
}

#[test]
fn paged_memory_matches_a_word_map() {
    for seed in 1..=8u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut mem = FlatMemory::new();
        let mut oracle = WordMap::default();
        let mut snapshot = None;
        for step in 0..20_000 {
            let addr = address(&mut rng);
            if rng.below(2) == 0 {
                let v = value(&mut rng);
                mem.write(addr, v);
                oracle.write(addr, v);
            } else {
                assert_eq!(
                    mem.read(addr),
                    oracle.read(addr),
                    "seed {seed} read {addr:#x}"
                );
            }
            if step % 1000 == 0 {
                assert_eq!(mem.footprint_words(), oracle.0.len(), "seed {seed}");
            }
            if step == 10_000 {
                snapshot = Some((mem.clone(), oracle.clone()));
            }
        }
        // Every written word, each byte of it, and the words around it.
        let written: Vec<u64> = oracle.0.keys().copied().collect();
        let probes = written
            .iter()
            .flat_map(|&a| (0..8).map(move |b| a + b))
            .chain(written.iter().map(|a| a.wrapping_sub(8)))
            .chain(written.iter().map(|a| a.wrapping_add(8)));
        assert_agree(&mem, &oracle, probes);
        // A clone is a snapshot: later writes to the original miss it.
        let (copy, copy_oracle) = snapshot.expect("taken mid-run");
        assert_agree(&copy, &copy_oracle, written);
    }
}

#[test]
fn words_at_the_edges_of_pages_and_of_memory() {
    let mut mem = FlatMemory::new();
    let edges = [
        PAGE_BYTES - 8,
        PAGE_BYTES,
        (1 << 63) - 8,
        1 << 63,
        u64::MAX - 7,
    ];
    for (i, &a) in edges.iter().enumerate() {
        mem.write(a, i as u64 + 1);
    }
    for (i, &a) in edges.iter().enumerate() {
        // Every byte address of the word reads it; its neighbours do not.
        for b in 0..8 {
            assert_eq!(mem.read(a + b), i as u64 + 1, "{:#x}", a + b);
        }
    }
    assert_eq!(mem.read(0), 0);
    assert_eq!(mem.read(PAGE_BYTES + 8), 0);
    assert_eq!(mem.read(u64::MAX - 15), 0);
    assert_eq!(mem.footprint_words(), edges.len());
    // An overwrite, even with zero, keeps the footprint.
    mem.write(u64::MAX, 0);
    assert_eq!(mem.read(u64::MAX - 7), 0);
    assert_eq!(mem.footprint_words(), edges.len());
}
