//! Property-based tests for views, view wire encodings, and selection.

use proptest::prelude::*;

use mss_overlay::select::{select_from_complement, select_from_complement_indexed};
use mss_overlay::wire;
use mss_overlay::{PeerId, View};
use mss_sim::rng::SimRng;

/// The seed's fixed n-bit bitmap, kept as the reference model the
/// adaptive representation is pinned against.
#[derive(Clone)]
struct SeedBitmap {
    words: Vec<u64>,
    n: usize,
}

impl SeedBitmap {
    fn new(n: usize) -> SeedBitmap {
        SeedBitmap {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }
    fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }
    fn union_with(&mut self, other: &SeedBitmap) -> usize {
        let before = self.count();
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.count() - before
    }
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
    fn members(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&i| self.words[i as usize / 64] & (1 << (i % 64)) != 0)
            .collect()
    }
    fn complement(&self) -> Vec<u32> {
        (0..self.n as u32)
            .filter(|&i| self.words[i as usize / 64] & (1 << (i % 64)) == 0)
            .collect()
    }
}

fn view_and_model(n: usize, ids: &[u32]) -> (View, SeedBitmap) {
    let mut v = View::empty(n);
    let mut m = SeedBitmap::new(n);
    for &i in ids {
        let i = i % n as u32;
        v.insert(PeerId(i));
        m.insert(i);
    }
    (v, m)
}

/// Mirror of the view's promotion threshold: a sparse view holding
/// more members than this leaves the sorted-id form.
fn sparse_cap(n: usize) -> usize {
    (n / 32).max(16)
}

/// `count` ids over `0..n`: a random scatter, or a contiguous block
/// followed by scatter, so promotions reach both runs and the bitmap.
fn scale_ids(n: usize, count: usize, block: bool, rng: &mut SimRng) -> Vec<u32> {
    let mut ids = Vec::with_capacity(count);
    if block {
        let start = rng.gen_below(n as u64) as u32;
        ids.extend((start..n as u32).take(count / 2));
    }
    while ids.len() < count {
        ids.push(rng.gen_below(n as u64) as u32);
    }
    ids
}

fn view_of(n: usize, ids: &[u32]) -> View {
    let mut v = View::empty(n);
    for &i in ids {
        v.insert(PeerId(i));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Above `DENSE_START_MAX_N` views start sparse, so this is where the
    /// merge-based sparse ∪ sparse path runs. With member counts drawn
    /// around `sparse_cap(n)` the union stays sparse, crosses the cap
    /// mid-merge, or meets an already-promoted side; in every case it
    /// must be observably identical to inserting the other view's ids
    /// one by one.
    #[test]
    fn sparse_union_matches_per_id_inserts(
        n in 4097usize..200_000,
        a_permille in 0usize..1500,
        b_permille in 0usize..1500,
        a_block in any::<bool>(),
        b_block in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let cap = sparse_cap(n);
        let a = view_of(n, &scale_ids(n, cap * a_permille / 1000, a_block, &mut rng));
        let b = view_of(n, &scale_ids(n, cap * b_permille / 1000, b_block, &mut rng));
        let mut merged = a.clone();
        let mut stepwise = a.clone();
        let want_new = b.iter().filter(|&p| stepwise.insert(p)).count();
        prop_assert_eq!(merged.union_with(&b), want_new, "union growth");
        prop_assert_eq!(merged.count(), stepwise.count());
        prop_assert!(merged.iter().eq(stepwise.iter()), "iteration");
        let probes = a.iter().chain(b.iter()).flat_map(|p| {
            [p.0.saturating_sub(1), p.0, (p.0 + 1).min(n as u32 - 1)]
        });
        for i in probes.chain((0..64).map(|_| rng.gen_below(n as u64) as u32)) {
            prop_assert_eq!(merged.contains(PeerId(i)), stepwise.contains(PeerId(i)), "contains({})", i);
        }
        let absent = stepwise.absent_count();
        if absent > 0 {
            let ks = (0..64).map(|_| rng.gen_index(absent)).chain([0, absent - 1]);
            for k in ks {
                prop_assert_eq!(merged.nth_absent(k), stepwise.nth_absent(k), "nth_absent({})", k);
            }
        }
        prop_assert_eq!(wire::encoded_len(&merged), wire::encoded_len(&stepwise));
        let (mut fm, mut fs) = (Vec::new(), Vec::new());
        wire::encode_view(&merged, &mut fm);
        wire::encode_view(&stepwise, &mut fs);
        prop_assert_eq!(fm, fs, "wire frame");
        prop_assert_eq!(merged.union_with(&b), 0, "idempotent");
    }
}

proptest! {
    /// The adaptive view is observably identical to the seed bitmap:
    /// same insert novelty, count, membership, ascending iteration and
    /// complement, union growth — across representation promotions
    /// (large id ranges force sparse → runs/dense transitions).
    #[test]
    fn adaptive_view_equals_seed_bitmap(
        n in 1usize..3000,
        xs in proptest::collection::vec(0u32..3000, 0..300),
        ys in proptest::collection::vec(0u32..3000, 0..300),
    ) {
        let mut v = View::empty(n);
        let mut m = SeedBitmap::new(n);
        for &x in &xs {
            let x = x % n as u32;
            prop_assert_eq!(v.insert(PeerId(x)), m.insert(x), "insert novelty");
        }
        prop_assert_eq!(v.count(), m.count());
        prop_assert_eq!(v.iter().map(|p| p.0).collect::<Vec<_>>(), m.members());
        prop_assert_eq!(
            v.complement().iter().map(|p| p.0).collect::<Vec<_>>(),
            m.complement()
        );
        let (w, mw) = view_and_model(n, &ys);
        let mut vu = v.clone();
        let mut mu = m.clone();
        prop_assert_eq!(vu.union_with(&w), mu.union_with(&mw), "union growth");
        prop_assert_eq!(vu.iter().map(|p| p.0).collect::<Vec<_>>(), mu.members());
        // nth_absent agrees with the materialized complement.
        for (k, &c) in mu.complement().iter().enumerate() {
            prop_assert_eq!(vu.nth_absent(k).0, c);
        }
    }

    /// Every wire encoding of a view round-trips to the same set, the
    /// smallest form is what `encode_view` emits, and `encoded_len` is
    /// exact.
    #[test]
    fn view_wire_encodings_are_equivalent(
        n in 1usize..2000,
        xs in proptest::collection::vec(0u32..2000, 0..200),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut frames = Vec::new();
        for enc in [
            wire::encode_dense as fn(&View, &mut Vec<u8>),
            wire::encode_sparse,
            wire::encode_runs,
            wire::encode_view,
        ] {
            let mut out = Vec::new();
            enc(&v, &mut out);
            frames.push(out);
        }
        let mut decoded = Vec::new();
        for f in &frames {
            let (frame, used) = wire::decode_view(f, n).expect("well-formed");
            prop_assert_eq!(used, f.len(), "self-delimiting");
            match frame {
                wire::ViewFrame::Set(got) => decoded.push(got),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        for d in &decoded {
            prop_assert_eq!(d, &v, "cross-encoding equivalence");
        }
        let chosen = &frames[3];
        prop_assert_eq!(chosen.len(), wire::encoded_len(&v), "encoded_len exact");
        prop_assert!(frames[..3].iter().all(|f| chosen.len() <= f.len()), "minimality");
    }

    /// Delta frames reconstruct exactly: for any base ⊆ grown pair,
    /// shipping `grown.diff_ids(base)` and applying it to the base
    /// yields `grown`, and `delta_encoded_len` is exact.
    #[test]
    fn delta_frames_reconstruct_grown_views(
        n in 1usize..2000,
        base_ids in proptest::collection::vec(0u32..2000, 0..100),
        extra_ids in proptest::collection::vec(0u32..2000, 0..100),
    ) {
        let (base, _) = view_and_model(n, &base_ids);
        let mut grown = base.clone();
        for &i in &extra_ids {
            grown.insert(PeerId(i % n as u32));
        }
        let adds = grown.diff_ids(&base);
        let mut out = Vec::new();
        wire::encode_delta(n, base.count(), &adds, &mut out);
        prop_assert_eq!(out.len(), wire::delta_encoded_len(n, base.count(), &adds));
        let (frame, used) = wire::decode_view(&out, n).expect("well-formed");
        prop_assert_eq!(used, out.len());
        let wire::ViewFrame::Delta { n: dn, base_count, additions } = frame else {
            prop_assert!(false, "expected delta frame");
            unreachable!();
        };
        prop_assert_eq!(dn, n);
        prop_assert_eq!(base_count, base.count());
        prop_assert_eq!(&wire::apply_delta(&base, &additions), &grown);
    }

    /// Truncating or corrupting any view frame errors, never panics.
    #[test]
    fn view_frames_reject_damage_gracefully(
        n in 1usize..500,
        xs in proptest::collection::vec(0u32..500, 0..80),
        seed in any::<u64>(),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut out = Vec::new();
        wire::encode_view(&v, &mut out);
        for cut in 0..out.len() {
            let _ = wire::decode_view(&out[..cut], n);
        }
        let mut rng = SimRng::new(seed);
        for _ in 0..8 {
            let mut bad = out.clone();
            let at = rng.gen_index(bad.len());
            bad[at] ^= (1 + rng.gen_below(255)) as u8;
            let _ = wire::decode_view(&bad, n);
        }
    }

    /// The indexed draw matches the materializing draw pick-for-pick on
    /// arbitrary views, and leaves the RNG stream in the same state.
    #[test]
    fn indexed_selection_matches_materialized(
        n in 1usize..400,
        xs in proptest::collection::vec(0u32..400, 0..200),
        m in 0usize..32,
        seed in any::<u64>(),
    ) {
        let (v, _) = view_and_model(n, &xs);
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let reference = a.sample(&v.complement(), m);
        let indexed = select_from_complement_indexed(&v, m, &mut b);
        prop_assert_eq!(indexed, reference);
        prop_assert_eq!(a.gen_index(10_000), b.gen_index(10_000), "stream alignment");
    }

    /// View union is monotone, idempotent, and commutative in cardinality.
    #[test]
    fn view_union_laws(
        n in 1usize..200,
        xs in proptest::collection::vec(0u32..200, 0..64),
        ys in proptest::collection::vec(0u32..200, 0..64),
    ) {
        let mk = |zs: &[u32]| {
            let mut v = View::empty(n);
            for &z in zs {
                v.insert(PeerId(z % n as u32));
            }
            v
        };
        let a = mk(&xs);
        let b = mk(&ys);
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!(ab.count() >= a.count().max(b.count()));
        prop_assert!(ab.count() <= a.count() + b.count());
        let before = ab.count();
        prop_assert_eq!(ab.union_with(&b), 0, "idempotent");
        prop_assert_eq!(ab.count(), before);
        for p in a.iter() {
            prop_assert!(ab.contains(p));
        }
    }

    /// Complement and membership are exact inverses.
    #[test]
    fn complement_partitions(n in 1usize..150, xs in proptest::collection::vec(0u32..150, 0..80)) {
        let mut v = View::empty(n);
        for &x in &xs {
            v.insert(PeerId(x % n as u32));
        }
        let c = v.complement();
        prop_assert_eq!(c.len() + v.count(), n);
        for p in &c {
            prop_assert!(!v.contains(*p));
        }
    }

    /// Selection never returns in-view peers, never duplicates, and is
    /// exhaustive when asked for more than the pool.
    #[test]
    fn selection_respects_the_pool(
        n in 1usize..120,
        member_bits in proptest::collection::vec(any::<bool>(), 120),
        m in 0usize..150,
        seed in any::<u64>(),
    ) {
        let mut v = View::empty(n);
        for (i, &bit) in member_bits.iter().enumerate().take(n) {
            if bit {
                v.insert(PeerId(i as u32));
            }
        }
        let pool = v.complement().len();
        let mut rng = SimRng::new(seed);
        let picked = select_from_complement(&v, m, &mut rng);
        prop_assert_eq!(picked.len(), m.min(pool));
        let mut sorted: Vec<_> = picked.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len(), "duplicates");
        for p in &picked {
            prop_assert!(!v.contains(*p), "selected an in-view peer");
        }
    }

    /// Claiming selected peers into the view drains the pool in at most
    /// ceil(pool/m) rounds — the termination argument for persistent
    /// probing.
    #[test]
    fn repeated_selection_terminates(n in 2usize..100, m in 1usize..10, seed in any::<u64>()) {
        let mut v = View::empty(n);
        v.insert(PeerId(0));
        let mut rng = SimRng::new(seed);
        let pool = v.complement().len();
        let mut rounds = 0;
        loop {
            let picked = select_from_complement(&v, m, &mut rng);
            if picked.is_empty() {
                break;
            }
            for p in picked {
                v.insert(p);
            }
            rounds += 1;
            prop_assert!(rounds <= pool, "selection failed to make progress");
        }
        prop_assert!(v.is_full());
        prop_assert!(rounds <= pool.div_ceil(m));
    }
}
