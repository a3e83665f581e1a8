//! The shared, shardable state store of the explicit-state engine.
//!
//! Every search of this crate runs through the generic
//! [`crate::explorer::Explorer`] driver, and the driver's state table lives
//! here: dedup visited configurations and decode stored states back for
//! counterexample reconstruction.  How the states connect is recorded once,
//! in the CSR graph the explorer writes beside the store (see
//! [`crate::explorer::Explored`]).  [`StateStore`] keeps rows, hashes and
//! their index, around the row representation of [`cccounter::RowEngine`]:
//!
//! * **Contiguous packed rows.**  A single-round state is one fixed-stride
//!   byte row (`locations ++ variables`), so each shard keeps its states in
//!   one contiguous `Vec<u8>` arena — no per-node boxing, no
//!   `Configuration` clone next to a separate `Vec<u8>` hash-map key, and
//!   duplicate detection is a single `memcmp` against the arena.
//! * **A u64-keyed open-addressing index per shard.**  Dedup probes a flat
//!   quadratic-probing table keyed by the incremental Zobrist hash that the
//!   row engine maintains across delta application; no SipHash, no
//!   re-hashing of the full state per lookup.
//! * **Hash-prefix sharding.**  The store is split into `2^k` shards; a
//!   state belongs to the shard selected by the *top* bits of its row hash
//!   (the index probes use the low bits, so the two never interfere).  The
//!   shard of a state is a pure function of its content, which makes the
//!   partition — and therefore every derived count — independent of how
//!   many worker threads fill the store.  Worker threads intern into
//!   disjoint shards without locks; node ids interleave the shard tag in
//!   the low bits (`local_index << shard_bits | shard`) so ids stay dense
//!   as long as the shards stay balanced.
//!
//! Full [`Configuration`]s are decoded back on demand only, for
//! counterexample reconstruction.

use cccounter::{Configuration, CounterSystem};

/// Marker for an empty slot of the index table.
const EMPTY: u32 = u32::MAX;

/// Hard cap on the shard count (a power of two; beyond this the per-shard
/// index tables get too small to be worth the fan-out).
pub(crate) const MAX_SHARDS: usize = 64;

/// A flat open-addressing hash index mapping 64-bit hashes to node ids.
///
/// Collisions are resolved by triangular-number probing; full-key equality
/// is delegated to the caller through a closure, so the table itself stays
/// generic over how nodes are stored.
#[derive(Debug)]
struct RawTable {
    /// `(cached hash, node id)` per slot; `EMPTY` id marks a free slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl RawTable {
    fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity.max(16) * 2).next_power_of_two();
        RawTable {
            slots: vec![(0, EMPTY); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Finds the id stored for `hash` (with `eq` confirming full-key
    /// equality), or the slot index where it would be inserted.
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mut idx = hash as usize & self.mask;
        let mut step = 0usize;
        loop {
            let (slot_hash, slot_id) = self.slots[idx];
            if slot_id == EMPTY {
                return Err(idx);
            }
            if slot_hash == hash && eq(slot_id) {
                return Ok(slot_id);
            }
            step += 1;
            idx = (idx + step) & self.mask;
        }
    }

    fn insert_at(&mut self, slot: usize, hash: u64, id: u32) {
        self.slots[slot] = (hash, id);
        self.len += 1;
    }

    fn needs_grow(&self) -> bool {
        // grow at 2/3 load
        self.len * 3 >= self.slots.len() * 2
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); new_cap]);
        self.mask = new_cap - 1;
        for (hash, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut idx = hash as usize & self.mask;
            let mut step = 0usize;
            while self.slots[idx].1 != EMPTY {
                step += 1;
                idx = (idx + step) & self.mask;
            }
            self.slots[idx] = (hash, id);
        }
    }
}

/// One shard of the store: a private row arena plus its own index table.
/// The explorer's intern phase hands each worker thread exclusive `&mut`
/// access to one shard, so filling the store in parallel needs no locks.
#[derive(Debug)]
pub(crate) struct Shard {
    table: RawTable,
    /// All stored rows, back to back (`local id * stride` offsets).
    rows: Vec<u8>,
    /// Zobrist hash per node, as maintained by the row engine.
    hashes: Vec<u64>,
    /// Bytes per row (mirrors the owning store).
    stride: usize,
    /// This shard's index, stored in the low bits of every node id.
    tag: u32,
    /// `log2` of the owning store's shard count.
    shard_bits: u32,
}

impl Shard {
    fn new(stride: usize, tag: u32, shard_bits: u32) -> Self {
        Shard {
            table: RawTable::with_capacity(64),
            rows: Vec::new(),
            hashes: Vec::new(),
            stride,
            tag,
            shard_bits,
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Interns a row into this shard, returning its *global* node id
    /// (`local << shard_bits | tag`) and whether it was fresh.  `hash` must
    /// select this shard under the owning store's [`StateStore::shard_of`].
    pub(crate) fn intern(&mut self, row: &[u8], hash: u64) -> (u32, bool) {
        let stride = self.stride;
        debug_assert_eq!(row.len(), stride);
        let rows = &self.rows;
        match self.table.probe(hash, |local| {
            &rows[local as usize * stride..(local as usize + 1) * stride] == row
        }) {
            Ok(local) => ((local << self.shard_bits) | self.tag, false),
            Err(slot) => {
                let local = self.len() as u32;
                // a real assert: `local << shard_bits` wrapping in release
                // would silently alias node ids and corrupt verdicts
                assert!(
                    (local as u64) << self.shard_bits <= u32::MAX as u64,
                    "node id space exhausted ({} states in shard {} of {})",
                    local,
                    self.tag,
                    1u32 << self.shard_bits,
                );
                self.rows.extend_from_slice(row);
                self.hashes.push(hash);
                self.table.insert_at(slot, hash, local);
                if self.table.needs_grow() {
                    self.table.grow();
                }
                ((local << self.shard_bits) | self.tag, true)
            }
        }
    }
}

/// Deduplicating storage of the explored state rows, split into
/// `2^shard_bits` hash-prefix shards (see the module docs).
pub(crate) struct StateStore {
    num_locations: usize,
    num_vars: usize,
    stride: usize,
    shard_bits: u32,
    shards: Vec<Shard>,
}

impl StateStore {
    /// An empty store for states of the given (single-round) counter
    /// system, with (at least) the requested number of shards, rounded up
    /// to a power of two and capped at 64.
    ///
    /// The hash-prefix partition makes the stored content of every shard —
    /// and all derived counts — a pure function of the interned state set,
    /// never of the thread interleaving that filled it.
    pub fn with_shards(sys: &CounterSystem, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let num_locations = sys.model().locations().len();
        let num_vars = sys.model().vars().len();
        let stride = num_locations + num_vars;
        let shard_bits = shards.trailing_zeros();
        StateStore {
            num_locations,
            num_vars,
            stride,
            shard_bits,
            shards: (0..shards)
                .map(|tag| Shard::new(stride, tag as u32, shard_bits))
                .collect(),
        }
    }

    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Bytes per stored row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// An exclusive upper bound on the node ids currently in use.  With
    /// balanced shards this is close to [`StateStore::len`], so it is safe
    /// to use as the length of id-indexed side arrays.
    pub fn id_bound(&self) -> usize {
        self.shards
            .iter()
            .map(Shard::len)
            .max()
            .unwrap_or(0)
            .saturating_mul(self.shards.len())
    }

    /// All node ids currently in use, grouped by shard (the order is *not*
    /// discovery order).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let bits = self.shard_bits;
        self.shards.iter().enumerate().flat_map(move |(tag, s)| {
            (0..s.len() as u32).map(move |local| (local << bits) | tag as u32)
        })
    }

    /// The shard owning a row hash (selected by its top bits; the index
    /// tables probe with the low bits).
    #[inline]
    pub(crate) fn shard_of(&self, hash: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    #[inline]
    fn split(&self, id: u32) -> (&Shard, usize) {
        let tag = (id as usize) & (self.shards.len() - 1);
        (&self.shards[tag], (id >> self.shard_bits) as usize)
    }

    /// The shard arenas, for the explorer's parallel intern phase.  Shard
    /// `k` must only be handed candidates whose [`StateStore::shard_of`]
    /// is `k`, in deterministic candidate order.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Interns a state row: returns its id and whether it was newly
    /// inserted.
    ///
    /// `hash` is the row's Zobrist hash as produced by
    /// [`RowEngine::hash`](cccounter::RowEngine::hash) and maintained
    /// incrementally by `RowEngine::for_each_successor`; a duplicate lookup
    /// costs one table probe plus a `memcmp` against the row arena — no
    /// allocation, no re-hashing.
    pub fn intern_row(&mut self, row: &[u8], hash: u64) -> (u32, bool) {
        let tag = self.shard_of(hash);
        self.shards[tag].intern(row, hash)
    }

    /// The stored row of a node.
    pub fn row(&self, id: u32) -> &[u8] {
        let (shard, local) = self.split(id);
        &shard.rows[local * self.stride..(local + 1) * self.stride]
    }

    /// Copies a stored row into a scratch buffer (resized to the stride).
    pub fn copy_row_into(&self, id: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(self.row(id));
    }

    /// The Zobrist hash of a node's row.
    pub fn hash64(&self, id: u32) -> u64 {
        let (shard, local) = self.split(id);
        shard.hashes[local]
    }

    /// Decodes a stored row back into a full round-0 configuration.
    pub fn decode(&self, id: u32) -> Configuration {
        cccounter::decode_row(self.row(id), self.num_locations, self.num_vars)
    }

    /// Interns a configuration directly, for tests; the explorer interns
    /// rows via [`StateStore::intern_row`].
    #[cfg(test)]
    fn intern_config(
        &mut self,
        engine: &cccounter::RowEngine<'_>,
        cfg: &Configuration,
    ) -> (u32, bool) {
        let mut row = Vec::with_capacity(self.stride);
        engine.encode_into(cfg, &mut row);
        let hash = engine.hash(&row);
        self.intern_row(&row, hash)
    }

    /// Resident bytes of the store: the row arenas, the per-node hashes and
    /// the index-table slots.
    ///
    /// This is also the figure a [`crate::JobBudget`] resident-byte cap is
    /// checked against at wave boundaries.  A store owns no interior
    /// pointers and no thread state, so a suspended build's store moves
    /// freely inside a [`crate::JobCheckpoint`] and resumes interning on
    /// whatever pool the resumed job runs — the shard count (fixed at
    /// construction) is the only thing a checkpoint pins.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.rows.len()
                    + s.hashes.len() * std::mem::size_of::<u64>()
                    + s.table.slots.len() * std::mem::size_of::<(u64, u32)>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccounter::testutil::{small_params, voting_model};
    use cccounter::{CounterSystem, RowEngine};

    fn sys() -> CounterSystem {
        let model = voting_model().single_round().unwrap();
        CounterSystem::new(model, small_params()).unwrap()
    }

    #[test]
    fn intern_dedups_by_row() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::with_shards(&sys, 1);
        let starts = sys.round_start_configurations();
        let (a, fresh_a) = store.intern_config(&engine, &starts[0]);
        let (b, fresh_b) = store.intern_config(&engine, &starts[0]);
        let (c, fresh_c) = store.intern_config(&engine, &starts[1]);
        assert!(fresh_a && !fresh_b && fresh_c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.decode(a), starts[0]);
        assert_eq!(store.decode(c), starts[1]);
        assert_ne!(store.row(a), store.row(c));
    }

    #[test]
    fn intern_survives_table_growth() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut store = StateStore::with_shards(&sys, 1);
        // insert thousands of distinct states to force several grows
        let mut cfg = sys.empty_configuration();
        let loc = sys.model().location_id("I0").unwrap();
        let var = sys.model().var_id("v0").unwrap();
        let mut ids = Vec::new();
        for c in 0..60u64 {
            for v in 0..60u64 {
                cfg.set_counter(loc, 0, c);
                cfg.set_var(var, 0, v);
                let (id, fresh) = store.intern_config(&engine, &cfg);
                assert!(fresh);
                ids.push(id);
            }
        }
        assert_eq!(store.len(), 3600);
        // every previously interned state is still found, not re-inserted
        for (i, id) in ids.iter().enumerate() {
            let (c, v) = ((i / 60) as u64, (i % 60) as u64);
            cfg.set_counter(loc, 0, c);
            cfg.set_var(var, 0, v);
            let (again, fresh) = store.intern_config(&engine, &cfg);
            assert!(!fresh);
            assert_eq!(again, *id);
        }
    }

    #[test]
    fn sharded_store_partitions_by_content() {
        let sys = sys();
        let engine = RowEngine::new(&sys);
        let mut sharded = StateStore::with_shards(&sys, 4);
        let mut flat = StateStore::with_shards(&sys, 1);
        assert_eq!(sharded.num_shards(), 4);
        let mut cfg = sys.empty_configuration();
        let loc = sys.model().location_id("I0").unwrap();
        let var = sys.model().var_id("v0").unwrap();
        for c in 0..40u64 {
            for v in 0..40u64 {
                cfg.set_counter(loc, 0, c);
                cfg.set_var(var, 0, v);
                let (sid, sfresh) = sharded.intern_config(&engine, &cfg);
                let (_, ffresh) = flat.intern_config(&engine, &cfg);
                assert_eq!(sfresh, ffresh);
                // the sharded id decodes back to the same state
                assert_eq!(
                    sharded.decode(sid),
                    engine.decode(flat.row(flat.len() as u32 - 1))
                );
            }
        }
        assert_eq!(sharded.len(), flat.len());
        assert_eq!(sharded.ids().count(), sharded.len());
        assert!(sharded.id_bound() >= sharded.len());
        assert_eq!(sharded.len(), 1600);
        // every shard holds part of the content-addressed partition
        assert!(sharded.shards.iter().all(|s| s.len() > 0));
        // resident bytes cover the side arrays and the index on top of rows
        assert!(sharded.resident_bytes() > 1600 * sharded.stride());
    }
}
