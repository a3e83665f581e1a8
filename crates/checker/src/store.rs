//! The state store of the explicit-state engine.
//!
//! Every search of this crate runs through the generic
//! `crate::explorer::Explorer` loop, and that loop's state table lives
//! here: dedup visited configurations and decode stored states back for
//! counterexample reconstruction.  How the states connect is recorded once,
//! in the CSR graph the explorer writes beside the store (see
//! `crate::explorer::Explored`).  `StateStore` keeps rows, hashes and
//! their index, around the row representation of [`cccounter::RowEngine`]:
//!
//! * **Contiguous packed rows.**  A single-round state is one fixed-stride
//!   byte row (`locations ++ variables`), so the store keeps its states in
//!   one contiguous `Vec<u8>` arena — no per-node boxing, no
//!   `Configuration` clone next to a separate `Vec<u8>` hash-map key, and
//!   duplicate detection is a single `memcmp` against the arena.
//! * **An index of 8-byte tagged slots.**  Dedup probes a flat,
//!   linearly probed table keyed by the incremental Zobrist hash that the
//!   row engine maintains across delta application: the hash's low bits
//!   pick the home slot, and a slot holds the upper 32 bits of the hash as
//!   a tag beside the `u32` node id, so eight slots share a cache line and
//!   a probe compares a row only where the tag matches.  The full hashes
//!   live once, per node, beside the rows, and a growing table is rebuilt
//!   from them.  No SipHash, no re-hashing of the full state per lookup.
//! * **Dense ids.**  The n-th interned row gets node id n, so id-indexed
//!   side arrays are exactly `StateStore::len()` long.
//!
//! Full [`Configuration`]s are decoded back on demand only, for
//! counterexample reconstruction.

use cccounter::{Configuration, CounterSystem};

/// The id of an empty slot of the index table (never a node id:
/// `StateStore::intern_row` stops before handing it out).
const EMPTY: u32 = u32::MAX;

/// A flat open-addressing index mapping 64-bit hashes to dense node ids.
///
/// A slot is one `u64`: the upper 32 bits of the node's hash (its *tag*)
/// above its id, or `EMPTY` in the id bits for a free slot.  The low
/// bits of the hash pick the home slot and collisions probe linearly.  The
/// tag only filters: a slot whose tag matches is confirmed by the caller's
/// full-key comparison, so rows that share a whole hash still get their
/// own ids.  The table keeps no full hashes; `grow` re-inserts every id
/// from the caller's per-node hashes.
#[derive(Debug)]
struct RawTable {
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

impl RawTable {
    fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity.max(16) * 2).next_power_of_two();
        RawTable {
            slots: vec![u64::from(EMPTY); cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// The tag a slot keeps of a hash: its upper 32 bits.
    #[inline]
    fn tag(hash: u64) -> u32 {
        (hash >> 32) as u32
    }

    /// Finds the id stored for `hash` (with `eq` confirming full-key
    /// equality), or the slot index where it would be inserted.
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let tag = Self::tag(hash);
        let mut idx = hash as usize & self.mask;
        loop {
            let slot = self.slots[idx];
            let id = slot as u32;
            if id == EMPTY {
                return Err(idx);
            }
            if Self::tag(slot) == tag && eq(id) {
                return Ok(id);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn insert_at(&mut self, slot: usize, hash: u64, id: u32) {
        self.slots[slot] = u64::from(Self::tag(hash)) << 32 | u64::from(id);
        self.len += 1;
    }

    fn needs_grow(&self) -> bool {
        // grow at 2/3 load
        self.len * 3 >= self.slots.len() * 2
    }

    /// Doubles the table and re-inserts node `id` under `hashes[id]`, in id
    /// order.  The ids are distinct, so no row is compared.
    fn grow(&mut self, hashes: &[u64]) {
        debug_assert_eq!(hashes.len(), self.len, "one hash per stored id");
        let new_cap = self.slots.len() * 2;
        self.slots = vec![u64::from(EMPTY); new_cap];
        self.mask = new_cap - 1;
        self.len = 0;
        for (id, &hash) in hashes.iter().enumerate() {
            let mut idx = hash as usize & self.mask;
            while self.slots[idx] as u32 != EMPTY {
                idx = (idx + 1) & self.mask;
            }
            self.insert_at(idx, hash, id as u32);
        }
    }
}

/// Deduplicating storage of the explored state rows (see the module docs).
pub(crate) struct StateStore {
    num_locations: usize,
    num_vars: usize,
    /// Bytes per row.
    stride: usize,
    table: RawTable,
    /// All stored rows, back to back (`id * stride` offsets).
    rows: Vec<u8>,
    /// Zobrist hash per node, as maintained by the row engine.
    hashes: Vec<u64>,
}

impl StateStore {
    /// An empty store for states of the given (single-round) counter
    /// system.
    pub fn new(sys: &CounterSystem) -> Self {
        let num_locations = sys.model().locations().len();
        let num_vars = sys.model().vars().len();
        StateStore {
            num_locations,
            num_vars,
            stride: num_locations + num_vars,
            table: RawTable::with_capacity(64),
            rows: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Number of stored states; node ids are `0..len()`.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Bytes per stored row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// All node ids currently in use, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = u32> {
        0..self.len() as u32
    }

    /// Interns a state row: returns its id and whether it was newly
    /// inserted.
    ///
    /// `hash` is the row's Zobrist hash as produced by
    /// [`RowEngine::hash`](cccounter::RowEngine::hash) and maintained
    /// incrementally by `RowEngine::for_each_successor`; a duplicate lookup
    /// costs a linear probe over 8-byte slots plus one `memcmp` against the
    /// row arena per slot whose tag matches — no allocation, no re-hashing.
    pub fn intern_row(&mut self, row: &[u8], hash: u64) -> (u32, bool) {
        let stride = self.stride;
        debug_assert_eq!(row.len(), stride);
        let rows = &self.rows;
        match self.table.probe(hash, |id| {
            &rows[id as usize * stride..(id as usize + 1) * stride] == row
        }) {
            Ok(id) => (id, false),
            Err(slot) => {
                // a real assert: an id wrapping (or reaching the table's
                // empty marker) in release would silently alias node ids
                // and corrupt verdicts
                assert!(
                    self.len() < EMPTY as usize,
                    "node id space exhausted ({} states)",
                    self.len()
                );
                let id = self.len() as u32;
                self.rows.extend_from_slice(row);
                self.hashes.push(hash);
                self.table.insert_at(slot, hash, id);
                if self.table.needs_grow() {
                    self.table.grow(&self.hashes);
                }
                (id, true)
            }
        }
    }

    /// The stored row of a node.
    pub fn row(&self, id: u32) -> &[u8] {
        let at = id as usize * self.stride;
        &self.rows[at..at + self.stride]
    }

    /// Copies a stored row into a scratch buffer (resized to the stride).
    pub fn copy_row_into(&self, id: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(self.row(id));
    }

    /// The Zobrist hash of a node's row.
    pub fn hash64(&self, id: u32) -> u64 {
        self.hashes[id as usize]
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

    /// Resident bytes of the store: the row arena, the per-node hashes and
    /// the 8-byte index slots.
    ///
    /// This is also the figure a [`crate::JobBudget`] resident-byte cap is
    /// checked against at wave boundaries.
    pub fn resident_bytes(&self) -> usize {
        self.rows.len()
            + self.hashes.len() * std::mem::size_of::<u64>()
            + self.table.slots.len() * std::mem::size_of::<u64>()
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
        let mut store = StateStore::new(&sys);
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
        let mut store = StateStore::new(&sys);
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
        // ids are dense, in insertion order
        assert!(ids.iter().enumerate().all(|(i, &id)| id as usize == i));
        assert_eq!(store.ids().count(), store.len());
        // resident bytes cover the side arrays and the index on top of rows
        assert!(store.resident_bytes() > 3600 * store.stride());
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
    fn colliding_hashes_keep_their_own_ids_across_growths() {
        let sys = sys();
        let mut store = StateStore::new(&sys);
        let mut row = vec![0u8; store.stride()];
        let mut interned = Vec::new();
        // 300 rows under one identical hash, 300 whose hashes share the tag
        // but not the index bits, and 300 that share the index bits but
        // not the tag: 900 rows grow the 128-slot table four times
        let hashes = (0..300u64)
            .map(|_| 0xDEAD_BEEF_0000_0007)
            .chain((0..300u64).map(|i| 0xDEAD_BEEF_0000_0000 | i << 8))
            .chain((0..300u64).map(|i| i << 32 | 0x07));
        for (i, hash) in hashes.enumerate() {
            row[..2].copy_from_slice(&(i as u16).to_le_bytes());
            let (id, fresh) = store.intern_row(&row, hash);
            assert!(fresh, "row {i} is distinct");
            assert_eq!(id as usize, i, "ids stay dense");
            interned.push((row.clone(), hash));
        }
        assert_eq!(store.table.slots.len(), 2048);
        for (i, (row, hash)) in interned.iter().enumerate() {
            assert_eq!(store.row(i as u32), &row[..]);
            assert_eq!(store.intern_row(row, *hash), (i as u32, false));
        }
        assert_eq!(store.len(), 900);
    }
}
