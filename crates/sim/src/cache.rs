//! Set-associative cache tag model with LRU replacement.
//!
//! Tracks only tags and line states (contents are irrelevant to timing).
//! Used for both the per-SM L1s and the shared banked L2.
//!
//! # Hot-path layout
//!
//! This type sits on the innermost loop of the simulator, so its state
//! is stored as flat parallel arrays of packed bytes rather than
//! `Option<LineState>` values, and flash self-invalidation is O(1): the
//! cache keeps a monotonically increasing *epoch*, every `Valid` fill
//! records the epoch it happened in, and [`Cache::invalidate_unowned`]
//! simply bumps the epoch. A `Valid` way whose recorded epoch predates
//! the current one is *stale* and treated exactly like an empty way
//! everywhere (probe miss, preferred eviction victim, not resident).
//! `Owned` ways ignore the epoch, which is precisely the DeNovo
//! exemption from self-invalidation.

/// State of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Present and readable; will be discarded by self-invalidation
    /// (GPU coherence acquires, or non-owned DeNovo lines).
    Valid,
    /// Present and *owned* (DeNovo registration): survives
    /// self-invalidation, services local atomics, and must be handed
    /// over when another core requests ownership.
    Owned,
}

/// A live line displaced by a [`Cache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number (address >> line shift) of the victim.
    pub line: u64,
    /// State the victim was in.
    pub state: LineState,
}

/// Packed per-way word: `tag << 24 | epoch << 2 | state`. The tag is
/// the line number (40 bits — addresses below 2^46 with 64-byte
/// lines), the epoch (22 bits, for `VALID` ways) is the flash-
/// invalidation generation the way was filled in, and the state sits
/// in the low 2 bits. An `OWNED` way stores epoch bits zero. Residency
/// *and* the tag match are therefore two full-word compares against
/// constants built once per probe — the whole set scan touches one
/// 64-bit word per way, so an 8-way set is a single host cache line
/// instead of the three parallel arrays it used to straddle.
const EMPTY: u64 = 0;
const VALID: u64 = 1;
const OWNED: u64 = 2;
const STATE_BITS: u32 = 2;
const EPOCH_BITS: u32 = 22;
const TAG_SHIFT: u32 = STATE_BITS + EPOCH_BITS;
/// Epoch value at which [`Cache::rescrub`] renumbers in-place (leaving
/// headroom so `epoch + 1` never overflows the field).
const EPOCH_MAX: u64 = (1 << EPOCH_BITS) - 1;
/// Largest representable line number (40 tag bits).
const TAG_LIMIT: u64 = 1 << (64 - TAG_SHIFT);

/// The packed word of a live way holding `line`: `VALID` under `epoch`,
/// or `OWNED` (whose epoch bits are zero).
#[inline]
const fn valid_word(line: u64, epoch: u64) -> u64 {
    (line << TAG_SHIFT) | (epoch << STATE_BITS) | VALID
}

#[inline]
const fn owned_word(line: u64) -> u64 {
    (line << TAG_SHIFT) | OWNED
}

#[inline]
const fn tag_of(word: u64) -> u64 {
    word >> TAG_SHIFT
}

/// What a [`Cache::probe`] found, to be redeemed by [`Cache::fill`]:
/// the way holding the line and its state on a hit, or on a miss the
/// victim way a fill would use.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    way: usize,
    state: Option<LineState>,
}

impl Probe {
    /// The line's state on a hit; `None` on a miss.
    #[inline]
    pub fn state(self) -> Option<LineState> {
        self.state
    }
}

/// A set-associative tag array with LRU replacement.
///
/// Lines are identified by *line number* (byte address divided by the
/// line size); the caller performs that division so the same type serves
/// caches with different line sizes.
///
/// # Example
///
/// ```
/// use ggs_sim::cache::{Cache, LineState};
///
/// let mut c = Cache::new(2, 2); // 2 sets, 2 ways
/// let miss = c.probe(0);
/// assert_eq!(miss.state(), None);
/// assert_eq!(c.fill(miss, 0, LineState::Valid), None); // dead way: no eviction
/// let hit = c.probe(0);
/// assert_eq!(hit.state(), Some(LineState::Valid));
/// c.fill(hit, 0, LineState::Owned); // a state change fills in place
/// assert_eq!(c.peek(0), Some(LineState::Owned));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    ways: usize,
    /// Per-way packed tag + epoch + state (see [`valid_word`]); a
    /// `VALID` way whose epoch predates `epoch` is stale.
    words: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    /// Current flash-invalidation epoch (starts at 1 so a live `VALID`
    /// word is never all-zero-epoch like `EMPTY`).
    epoch: u64,
    /// Number of non-stale `VALID` ways (incremental, so flash
    /// invalidation can report its count without scanning).
    valid_count: u64,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: u64, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "way count must be positive");
        let n = (sets as usize) * ways;
        Self {
            sets,
            ways,
            words: vec![EMPTY; n],
            stamps: vec![0; n],
            clock: 0,
            epoch: 1,
            valid_count: 0,
        }
    }

    /// Creates a cache sized from capacity in bytes.
    ///
    /// The set count is the *largest* power of two that fits within the
    /// requested capacity (minimum 1), so the modeled cache never holds
    /// more lines than `capacity_bytes / line_bytes`. Rounding up here
    /// would silently inflate capacity by up to 2x for non-power-of-two
    /// geometries.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn with_geometry(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        let lines = capacity_bytes / line_bytes;
        let raw = (lines / ways as u64).max(1);
        // Previous power of two: 2^floor(log2(raw)).
        let sets = 1u64 << (63 - raw.leading_zeros());
        Self::new(sets, ways)
    }

    /// Heap bytes held by the tag and stamp arrays.
    pub fn heap_bytes(&self) -> u64 {
        ((self.words.capacity() + self.stamps.capacity()) * size_of::<u64>()) as u64
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & (self.sets - 1)) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Panics on line numbers the 40-bit packed tag cannot represent;
    /// every entry point taking a line number funnels through this so a
    /// too-large line can never silently alias a resident tag.
    #[inline]
    fn check_line(line: u64) {
        assert!(
            line < TAG_LIMIT,
            "line number {line:#x} exceeds 40 tag bits"
        );
    }

    /// Whether way `i` holds a live line (an `OWNED` way, or a `VALID`
    /// way filled in the current epoch).
    #[inline]
    fn resident(&self, i: usize) -> bool {
        let w = self.words[i];
        match w & 0b11 {
            OWNED => true,
            VALID => w == valid_word(tag_of(w), self.epoch),
            _ => false,
        }
    }

    #[inline]
    fn state_of(&self, i: usize) -> LineState {
        if self.words[i] & 0b11 == OWNED {
            LineState::Owned
        } else {
            LineState::Valid
        }
    }

    /// Finds the way within `range` holding `line`, if it is resident.
    /// Scans a subslice of packed words so the compiler drops per-way
    /// bounds checks and the whole probe is two compares per way
    /// against one loaded word (this is the innermost loop of the whole
    /// simulator). The scan visits every way and keeps the last match
    /// instead of exiting at an unpredictable way: at most one way
    /// holds a live copy of a line, because a fill goes to the way its
    /// probe found: the line's own way on a hit, a victim on a miss.
    #[inline]
    fn find_way(&self, range: &std::ops::Range<usize>, line: u64) -> Option<usize> {
        Self::check_line(line);
        let live = valid_word(line, self.epoch);
        let owned = owned_word(line);
        let words = &self.words[range.clone()];
        let mut hit = None;
        for (w, &word) in words.iter().enumerate() {
            hit = if (word == live) | (word == owned) {
                Some(range.start + w)
            } else {
                hit
            };
        }
        hit
    }

    /// Looks up a line without disturbing LRU state.
    pub fn peek(&self, line: u64) -> Option<LineState> {
        let i = self.find_way(&self.set_range(line), line)?;
        Some(self.state_of(i))
    }

    /// Writes `line` in `state` into way `i`, keeping the valid-way
    /// count and epoch tag coherent with the way's previous contents.
    #[inline]
    fn write_way(&mut self, i: usize, line: u64, state: LineState) {
        let w = self.words[i];
        if w & 0b11 == VALID && w == valid_word(tag_of(w), self.epoch) {
            self.valid_count -= 1;
        }
        match state {
            LineState::Valid => {
                self.words[i] = valid_word(line, self.epoch);
                self.valid_count += 1;
            }
            LineState::Owned => self.words[i] = owned_word(line),
        }
    }

    /// The LRU victim way within `range`: the first dead way in scan
    /// order, else the way with the oldest stamp.
    ///
    /// The scan ranks a dead way 0 and a resident way by its stamp (a
    /// resident way's stamp is never 0), and keeps the first way of
    /// least rank. Ranking by a mask instead of branching on each way's
    /// state keeps the loop free of data-dependent branches.
    #[inline]
    fn find_victim(&self, range: &std::ops::Range<usize>) -> usize {
        let live_valid = (self.epoch << STATE_BITS) | VALID;
        let words = &self.words[range.clone()];
        let stamps = &self.stamps[range.clone()];
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (w, (&word, &st)) in words.iter().zip(stamps).enumerate() {
            let resident =
                (word & 0b11 == OWNED) | (word & ((EPOCH_MAX << STATE_BITS) | 0b11) == live_valid);
            let rank = st & u64::from(resident).wrapping_neg();
            if rank < victim_stamp {
                victim = w;
                victim_stamp = rank;
            }
        }
        range.start + victim
    }

    /// Probes the set of `line`. On a hit, refreshes the line's LRU
    /// position and reports its state; on a miss, reserves the victim
    /// way for a [`Cache::fill`].
    ///
    /// Two passes: a pure hit scan touching only the packed words (the
    /// common case, since the L2 hits about 91% of the time, pays for no
    /// LRU stamps at all), then the victim scan over words and stamps
    /// only when the hit scan came up empty.
    ///
    /// Always inlined, so each call site predicts its own hit/miss
    /// branch: the L1's probes mostly miss while the L2's mostly hit,
    /// and one shared out-of-line copy mispredicts both.
    #[inline(always)]
    pub fn probe(&mut self, line: u64) -> Probe {
        self.clock += 1;
        let range = self.set_range(line);
        match self.find_way(&range, line) {
            Some(way) => {
                self.stamps[way] = self.clock;
                Probe {
                    way,
                    state: Some(self.state_of(way)),
                }
            }
            None => Probe {
                way: self.find_victim(&range),
                state: None,
            },
        }
    }

    /// Writes `line` in `state` into the way `p` found and makes it the
    /// most recently used: over the victim after a miss, returning the
    /// live line it evicts, or in place after a hit (a state change
    /// such as a `Valid` copy becoming `Owned`). `p` must be this
    /// cache's probe of `line`, with no other mutation of the cache in
    /// between; the caller may do unrelated work in the gap.
    #[inline]
    pub fn fill(&mut self, p: Probe, line: u64, state: LineState) -> Option<Eviction> {
        Self::check_line(line);
        self.clock += 1;
        let old = tag_of(self.words[p.way]);
        let evicted = (self.resident(p.way) && old != line).then(|| Eviction {
            line: old,
            state: self.state_of(p.way),
        });
        self.write_way(p.way, line, state);
        self.stamps[p.way] = self.clock;
        evicted
    }

    /// Removes a specific line if present; returns its prior state.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let i = self.find_way(&self.set_range(line), line)?;
        let prior = self.state_of(i);
        if self.words[i] & 0b11 != OWNED {
            self.valid_count -= 1;
        }
        self.words[i] = EMPTY;
        Some(prior)
    }

    /// Flash self-invalidation: drops every [`LineState::Valid`] line,
    /// keeping [`LineState::Owned`] lines (the DeNovo exemption; GPU
    /// coherence has no owned lines, so this drops everything). Returns
    /// the number of lines invalidated. O(1): bumps the epoch so every
    /// `Valid` way goes stale at once.
    pub fn invalidate_unowned(&mut self) -> u64 {
        let n = self.valid_count;
        self.valid_count = 0;
        self.epoch += 1;
        if self.epoch == EPOCH_MAX {
            self.rescrub();
        }
        n
    }

    /// Epoch-space rollover (every `EPOCH_MAX - 1` flash
    /// invalidations): immediately after the epoch bump every `VALID`
    /// way is stale by definition, so clear them all and restart the
    /// epoch clock. Amortized to nothing; keeps the 22-bit packed
    /// epoch exact over arbitrarily long simulations.
    #[cold]
    fn rescrub(&mut self) {
        for w in &mut self.words {
            if *w & 0b11 == VALID {
                *w = EMPTY;
            }
        }
        self.epoch = 1;
    }

    /// Iterates over every resident line as `(line, state)` pairs. The
    /// order is the tag array's internal order, not insertion or LRU
    /// order. Used by the `check` feature's protocol auditor to scan L1
    /// contents without disturbing LRU state.
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        (0..self.words.len())
            .filter(|&i| self.resident(i))
            .map(|i| (tag_of(self.words[i]), self.state_of(i)))
    }

    /// Number of resident lines (any state).
    pub fn occupancy(&self) -> usize {
        (0..self.words.len()).filter(|&i| self.resident(i)).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probe, then fill whether the probe hit or missed.
    fn put(c: &mut Cache, line: u64, state: LineState) -> Option<Eviction> {
        let p = c.probe(line);
        c.fill(p, line, state)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.probe(12).state(), None);
        put(&mut c, 12, LineState::Valid);
        assert_eq!(c.probe(12).state(), Some(LineState::Valid));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(1, 2);
        put(&mut c, 0, LineState::Valid);
        put(&mut c, 1, LineState::Valid);
        c.probe(0); // refresh 0; 1 is now LRU
        let ev = put(&mut c, 2, LineState::Valid).expect("eviction");
        assert_eq!(ev.line, 1);
        assert_eq!(c.probe(0).state(), Some(LineState::Valid));
        assert_eq!(c.probe(1).state(), None);
    }

    #[test]
    fn fill_prefers_empty_way() {
        let mut c = Cache::new(1, 2);
        put(&mut c, 0, LineState::Valid);
        assert!(put(&mut c, 1, LineState::Valid).is_none());
    }

    #[test]
    fn fill_on_a_hit_changes_state_without_eviction() {
        let mut c = Cache::new(1, 1);
        put(&mut c, 3, LineState::Valid);
        assert!(put(&mut c, 3, LineState::Owned).is_none());
        assert_eq!(c.peek(3), Some(LineState::Owned));
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.invalidate_unowned(), 0, "the Valid copy became Owned");
    }

    #[test]
    fn flash_invalidation_spares_owned() {
        let mut c = Cache::new(2, 2);
        put(&mut c, 0, LineState::Valid);
        put(&mut c, 1, LineState::Owned);
        put(&mut c, 2, LineState::Valid);
        assert_eq!(c.invalidate_unowned(), 2);
        assert_eq!(c.peek(0), None);
        assert_eq!(c.peek(1), Some(LineState::Owned));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn targeted_invalidation() {
        let mut c = Cache::new(2, 1);
        put(&mut c, 5, LineState::Owned);
        assert_eq!(c.invalidate(5), Some(LineState::Owned));
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn geometry_helper() {
        let c = Cache::with_geometry(32 * 1024, 8, 64);
        assert_eq!(c.capacity_lines(), 64 * 8);
    }

    #[test]
    fn geometry_never_exceeds_requested_capacity() {
        // Sweep power-of-two and awkward non-power-of-two geometries:
        // modeled capacity must never exceed the requested byte budget.
        for capacity in [4 * 1024u64, 24 * 1024, 48 * 1024, 96 * 1024, 512 * 1024] {
            for ways in [1usize, 4, 8, 16] {
                for line_bytes in [32u64, 64, 128] {
                    let c = Cache::with_geometry(capacity, ways, line_bytes);
                    let modeled = c.capacity_lines() as u64 * line_bytes;
                    assert!(
                        modeled <= capacity.max(ways as u64 * line_bytes),
                        "{capacity} B / {ways} ways / {line_bytes} B lines \
                         modeled {modeled} B"
                    );
                }
            }
        }
        // A 96-set geometry (48 KiB, 8 ways, 64 B) rounds DOWN to 64
        // sets, not up to 128.
        let c = Cache::with_geometry(48 * 1024, 8, 64);
        assert_eq!(c.capacity_lines(), 64 * 8);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1);
        put(&mut c, 0, LineState::Valid); // set 0
        put(&mut c, 1, LineState::Valid); // set 1
        assert_eq!(c.peek(0), Some(LineState::Valid));
        assert_eq!(c.peek(1), Some(LineState::Valid));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = Cache::new(3, 1);
    }

    #[test]
    fn stale_ways_behave_exactly_like_empty_ways() {
        let mut c = Cache::new(1, 2);
        put(&mut c, 0, LineState::Valid);
        put(&mut c, 2, LineState::Valid);
        c.invalidate_unowned();
        // Stale tags miss on a probe even though the tag bytes remain.
        assert_eq!(c.probe(0).state(), None);
        assert_eq!(c.peek(2), None);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.resident_lines().count(), 0);
        // Refilling prefers the first stale way and reports no eviction.
        assert!(put(&mut c, 4, LineState::Valid).is_none());
        assert!(put(&mut c, 6, LineState::Valid).is_none());
        assert_eq!(c.occupancy(), 2);
        // Re-invalidating an already-stale line is a no-op miss.
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn repeated_flash_invalidations_count_correctly() {
        let mut c = Cache::new(2, 2);
        put(&mut c, 0, LineState::Valid);
        put(&mut c, 1, LineState::Valid);
        assert_eq!(c.invalidate_unowned(), 2);
        assert_eq!(c.invalidate_unowned(), 0, "second flash finds nothing");
        put(&mut c, 2, LineState::Valid);
        c.invalidate(2);
        assert_eq!(
            c.invalidate_unowned(),
            0,
            "targeted invalidation already discounted the line"
        );
        put(&mut c, 3, LineState::Owned);
        assert_eq!(c.invalidate_unowned(), 0, "owned lines are exempt");
        assert_eq!(c.peek(3), Some(LineState::Owned));
    }

    #[test]
    fn owned_downgrade_then_flash() {
        let mut c = Cache::new(1, 1);
        put(&mut c, 7, LineState::Owned);
        put(&mut c, 7, LineState::Valid);
        assert_eq!(c.invalidate_unowned(), 1, "downgraded line is flashable");
        assert_eq!(c.peek(7), None);
    }
}
