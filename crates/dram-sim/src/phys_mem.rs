//! A synthetic physical-page allocator.
//!
//! The reverse-engineering tools do not get to pick arbitrary physical
//! addresses: they can only touch pages the operating system actually handed
//! to their process. DRAMDig's Algorithm 1 explicitly deals with holes in
//! that pool ("if there are some pages missed in phys_pages, we try again"),
//! so the allocator here can produce contiguous pools, fragmented pools with
//! pseudo-random holes, or scattered pools, letting the tests exercise every
//! branch of the selection logic.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dram_model::{PhysAddr, PAGE_SIZE};

/// How the synthetic OS hands out physical pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// One physically contiguous block starting at `start_frame`.
    Contiguous {
        /// First allocated page frame number.
        start_frame: u64,
    },
    /// A mostly contiguous block in which each page is independently missing
    /// with probability `hole_probability` (fragmentation, other processes).
    Fragmented {
        /// First allocated page frame number.
        start_frame: u64,
        /// Probability that any individual page is *not* part of the pool.
        hole_probability: f64,
    },
    /// Pages drawn uniformly at random from the whole module (worst case for
    /// tools that assume contiguity).
    Scattered,
}

/// Internal storage: either an explicit frame list, or the whole module as a
/// closed-form range. The range form is what makes 30–39-bit generated
/// machines (up to 512 GiB) affordable — a dense list would materialise up
/// to 128 M frame numbers per probe clone.
#[derive(Debug, Clone)]
enum Frames {
    /// Explicit, sorted, deduplicated page frame numbers.
    Dense(Vec<u64>),
    /// Every frame `0..total_frames` is allocated; nothing is materialised.
    Full,
}

/// The set of physical pages available to the reverse-engineering tool.
#[derive(Debug, Clone)]
pub struct PhysMemory {
    frames: Frames,
    total_frames: u64,
    policy_desc: &'static str,
}

impl PhysMemory {
    /// Allocates `fraction` of a module containing `capacity_bytes` bytes
    /// according to `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn allocate(
        capacity_bytes: u64,
        fraction: f64,
        policy: AllocationPolicy,
        seed: u64,
    ) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let total_frames = capacity_bytes / PAGE_SIZE;
        let want = ((total_frames as f64 * fraction) as u64).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let (frames, policy_desc) = match policy {
            AllocationPolicy::Contiguous { start_frame } => {
                let start = start_frame.min(total_frames.saturating_sub(want));
                ((start..start + want).collect(), "contiguous")
            }
            AllocationPolicy::Fragmented {
                start_frame,
                hole_probability,
            } => {
                let start = start_frame.min(total_frames.saturating_sub(want));
                let frames: Vec<u64> = (start..total_frames)
                    .filter(|_| rng.gen::<f64>() >= hole_probability)
                    .take(want as usize)
                    .collect();
                (frames, "fragmented")
            }
            AllocationPolicy::Scattered => {
                let mut all: Vec<u64> = (0..total_frames).collect();
                all.shuffle(&mut rng);
                all.truncate(want as usize);
                all.sort_unstable();
                (all, "scattered")
            }
        };
        PhysMemory {
            frames: Frames::Dense(frames),
            total_frames,
            policy_desc,
        }
    }

    /// A pool containing every page of the module (hugepage-style access).
    ///
    /// Stored in closed form: no frame list is materialised, so full pools
    /// over arbitrarily large modules cost O(1) memory and clone for free.
    pub fn full(capacity_bytes: u64) -> Self {
        PhysMemory {
            frames: Frames::Full,
            total_frames: capacity_bytes / PAGE_SIZE,
            policy_desc: "full",
        }
    }

    /// Builds a pool directly from page frame numbers (tests).
    pub fn from_frames(frames: Vec<u64>, total_frames: u64) -> Self {
        let mut frames = frames;
        frames.sort_unstable();
        frames.dedup();
        PhysMemory {
            frames: Frames::Dense(frames),
            total_frames,
            policy_desc: "custom",
        }
    }

    /// Allocated page frame numbers, ascending. Full pools materialise the
    /// list on demand — callers on the measurement path should prefer
    /// [`PhysMemory::pages_with_bits`], [`PhysMemory::contains`] and
    /// [`PhysMemory::random_page`], which stay lazy.
    pub fn frames(&self) -> Vec<u64> {
        match &self.frames {
            Frames::Dense(frames) => frames.clone(),
            Frames::Full => (0..self.total_frames).collect(),
        }
    }

    /// Number of allocated pages.
    pub fn len(&self) -> usize {
        match &self.frames {
            Frames::Dense(frames) => frames.len(),
            Frames::Full => self.total_frames as usize,
        }
    }

    /// Returns `true` if no pages are allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of frames in the underlying module.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// A short human-readable description of the allocation policy.
    pub fn policy(&self) -> &'static str {
        self.policy_desc
    }

    /// Returns `true` if the pool contains the page holding `addr`.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        match &self.frames {
            Frames::Dense(frames) => frames.binary_search(&addr.page_frame()).is_ok(),
            Frames::Full => addr.page_frame() < self.total_frames,
        }
    }

    /// Returns `true` if every page in `[start, end)` (byte addresses) is in
    /// the pool — the `page_miss` check of Algorithm 1 inverted.
    pub fn covers_range(&self, start: PhysAddr, end: PhysAddr) -> bool {
        if end.raw() <= start.raw() {
            return true;
        }
        let first = start.page_frame();
        let last = (end.raw() - 1) / PAGE_SIZE;
        match &self.frames {
            // The frame list is sorted and distinct, so the run starting at
            // `first` is gap-free exactly when it reaches `last` in
            // `last - first` steps.
            Frames::Dense(frames) => frames
                .binary_search(&first)
                .is_ok_and(|i| frames.get(i + (last - first) as usize) == Some(&last)),
            Frames::Full => last < self.total_frames,
        }
    }

    /// Iterates, ascending, over the base addresses of the allocated pages
    /// that have every bit of `mask` set (bits below the page shift are
    /// ignored; a zero mask lists every page). A full pool steps from one
    /// such page straight to the next instead of scanning the pages in
    /// between.
    pub fn pages_with_bits(&self, mask: u64) -> Box<dyn Iterator<Item = PhysAddr> + '_> {
        let frame_mask = mask / PAGE_SIZE;
        match &self.frames {
            Frames::Dense(frames) => Box::new(
                frames
                    .iter()
                    .filter(move |&&f| f & frame_mask == frame_mask)
                    .map(|&f| PhysAddr::new(f * PAGE_SIZE)),
            ),
            Frames::Full => Box::new(
                // The next frame above `f` holding every mask bit.
                std::iter::successors(Some(frame_mask), move |&f| Some((f + 1) | frame_mask))
                    .take_while(|&f| f < self.total_frames)
                    .map(|f| PhysAddr::new(f * PAGE_SIZE)),
            ),
        }
    }

    /// Picks a uniformly random allocated page base address.
    pub fn random_page(&self, rng: &mut StdRng) -> Option<PhysAddr> {
        match &self.frames {
            Frames::Dense(frames) => frames.choose(rng).map(|&f| PhysAddr::new(f * PAGE_SIZE)),
            Frames::Full => {
                if self.total_frames == 0 {
                    return None;
                }
                // Same single-draw sampling as `choose` on a dense full
                // list, so seeded measurement sequences are unchanged by the
                // lazy representation.
                let f = rng.gen_range(0..self.total_frames);
                Some(PhysAddr::new(f * PAGE_SIZE))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 64 << 20; // 64 MiB keeps tests fast

    #[test]
    fn contiguous_allocation_has_no_holes() {
        let mem = PhysMemory::allocate(
            CAP,
            0.25,
            AllocationPolicy::Contiguous { start_frame: 8 },
            1,
        );
        let frames = mem.frames();
        assert_eq!(frames.len() as u64, CAP / PAGE_SIZE / 4);
        for w in frames.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        assert_eq!(mem.policy(), "contiguous");
    }

    #[test]
    fn fragmented_allocation_has_holes() {
        let mem = PhysMemory::allocate(
            CAP,
            0.25,
            AllocationPolicy::Fragmented {
                start_frame: 0,
                hole_probability: 0.2,
            },
            7,
        );
        let frames = mem.frames();
        let contiguous = frames.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !contiguous,
            "fragmented pool should contain at least one hole"
        );
    }

    #[test]
    fn scattered_allocation_is_sorted_and_unique() {
        let mem = PhysMemory::allocate(CAP, 0.1, AllocationPolicy::Scattered, 3);
        let frames = mem.frames();
        assert!(frames.windows(2).all(|w| w[1] > w[0]));
        assert!(frames.iter().all(|&f| f < mem.total_frames()));
    }

    #[test]
    fn full_pool_contains_everything() {
        let mem = PhysMemory::full(CAP);
        assert_eq!(mem.len() as u64, CAP / PAGE_SIZE);
        assert!(mem.contains(PhysAddr::new(CAP - 1)));
        assert!(!mem.contains(PhysAddr::new(CAP)));
        assert!(mem.covers_range(PhysAddr::new(0), PhysAddr::new(CAP)));
        assert!(!mem.covers_range(PhysAddr::new(0), PhysAddr::new(CAP + PAGE_SIZE)));
    }

    #[test]
    fn full_pool_is_lazy_but_behaves_like_a_dense_one() {
        // A 512 GiB module must not materialise 128 M frame numbers.
        let huge = PhysMemory::full(512 << 30);
        assert_eq!(huge.total_frames(), (512u64 << 30) / PAGE_SIZE);
        assert!(huge.contains(PhysAddr::new((512u64 << 30) - 1)));

        // On a small module the lazy pool and an equivalent dense pool make
        // identical random draws from identical seeds.
        let lazy = PhysMemory::full(CAP);
        let dense = PhysMemory::from_frames((0..CAP / PAGE_SIZE).collect(), CAP / PAGE_SIZE);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            assert_eq!(lazy.random_page(&mut rng_a), dense.random_page(&mut rng_b));
        }
        assert_eq!(
            lazy.pages_with_bits(0).take(5).collect::<Vec<_>>(),
            dense.pages_with_bits(0).take(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contains_and_covers_range() {
        let mem = PhysMemory::from_frames(vec![0, 1, 2, 5], 16);
        assert!(mem.contains(PhysAddr::new(0)));
        assert!(mem.contains(PhysAddr::new(2 * PAGE_SIZE + 17)));
        assert!(!mem.contains(PhysAddr::new(3 * PAGE_SIZE)));
        assert!(mem.covers_range(PhysAddr::new(0), PhysAddr::new(3 * PAGE_SIZE)));
        assert!(!mem.covers_range(PhysAddr::new(0), PhysAddr::new(4 * PAGE_SIZE)));
        // Empty range is trivially covered.
        assert!(mem.covers_range(PhysAddr::new(100), PhysAddr::new(100)));
    }

    #[test]
    fn pages_with_bits_matches_a_filtered_page_scan() {
        let full = PhysMemory::full(1 << 24);
        let dense = PhysMemory::from_frames((0..4096).filter(|f| f % 3 != 0).collect(), 4096);
        for mask in [0, 1 << 12, 0b1011 << 13, 0xF00 << 12, 1 << 23, 1 << 24] {
            for mem in [&full, &dense] {
                let scan: Vec<PhysAddr> = mem
                    .frames()
                    .into_iter()
                    .map(|f| PhysAddr::new(f * PAGE_SIZE))
                    .filter(|p| p.raw() & mask == mask)
                    .collect();
                let stepped: Vec<PhysAddr> = mem.pages_with_bits(mask).collect();
                assert_eq!(stepped, scan, "mask {mask:#x} over {}", mem.policy());
            }
        }
    }

    #[test]
    fn covers_range_matches_a_per_page_scan() {
        let mem = PhysMemory::from_frames(vec![2, 3, 4, 5, 7, 8, 12, 13, 14, 15], 32);
        for first in 0..20u64 {
            for last in first..20 {
                let (start, end) = (first * PAGE_SIZE + 5, last * PAGE_SIZE + 9);
                let scan = (first..=last).all(|f| mem.contains(PhysAddr::new(f * PAGE_SIZE)));
                assert_eq!(
                    mem.covers_range(PhysAddr::new(start), PhysAddr::new(end)),
                    scan,
                    "frames {first}..={last}"
                );
            }
        }
    }

    #[test]
    fn from_frames_sorts_and_dedups() {
        let mem = PhysMemory::from_frames(vec![5, 1, 5, 3], 16);
        assert_eq!(mem.frames(), &[1, 3, 5]);
        assert_eq!(mem.policy(), "custom");
        assert!(!mem.is_empty());
    }

    #[test]
    fn random_page_comes_from_pool() {
        let mem = PhysMemory::from_frames(vec![2, 9], 16);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let p = mem.random_page(&mut rng).unwrap();
            assert!(mem.contains(p));
            assert_eq!(p.page_offset(), 0);
        }
        let empty = PhysMemory::from_frames(vec![], 16);
        assert!(empty.random_page(&mut rng).is_none());
        assert!(empty.is_empty());
        assert!(PhysMemory::full(0).random_page(&mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        PhysMemory::allocate(CAP, 0.0, AllocationPolicy::Scattered, 0);
    }
}
