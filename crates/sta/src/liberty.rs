//! Timing library: electrical characterization of standard cells from the
//! device model (the stand-in for a Liberty/NLDM deck).

use crate::annotate::TransistorCd;
use crate::error::{Result, StaError};
use postopc_device::{MosKind, Mosfet, ProcessParams};
use postopc_layout::{CellLibrary, Drive, GateKind};
use std::collections::HashMap;

/// Sequential timing arcs of a register cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialTiming {
    /// Clock-to-Q delay, in ps.
    pub clk_to_q_ps: f64,
    /// Setup time required at D before the capturing edge, in ps.
    pub setup_ps: f64,
}

/// Number of input-slew grid points in an NLDM table.
pub const NLDM_SLEW_PTS: usize = 4;
/// Number of output-load grid points in an NLDM table.
pub const NLDM_LOAD_PTS: usize = 4;

/// The global input-slew axis shared by every cell's table, in ps.
/// Geometric spacing covers the slews the library itself produces (a few
/// ps for a strong gate into a light load, hundreds for a weak gate into
/// a long wire's lumped sinks).
pub const NLDM_SLEW_AXIS_PS: [f64; NLDM_SLEW_PTS] = [4.0, 16.0, 64.0, 256.0];

/// Load-axis points as multiples of the cell's own input capacitance
/// (FO1/4-ish up to FO32): per-cell scaling keeps the grid centered on the
/// loads that cell actually sees, whatever its drive strength.
const NLDM_LOAD_MULT: [f64; NLDM_LOAD_PTS] = [0.25, 2.0, 8.0, 32.0];

/// Input slew assumed at primary inputs and undriven nets, in ps.
pub const PRIMARY_INPUT_SLEW_PS: f64 = 20.0;

/// Slew of the clock edge launching sequential arcs, in ps.
pub const CLOCK_SLEW_PS: f64 = 20.0;

/// 10–90% transition gain of an RC output node (`ln 9`).
const SLEW_GAIN: f64 = 2.2;

/// Fraction of the input transition that feeds through to the output
/// transition of a switching CMOS stage.
const SLEW_FEEDTHROUGH: f64 = 0.25;

/// One NLDM-style 2-D timing table: delay and output slew of a cell's
/// worst arc indexed by (input slew, output load).
///
/// The slew axis is the global [`NLDM_SLEW_AXIS_PS`]; the load axis is
/// per-cell ([`load_axis_ff`](Self::load_axis_ff)). Lookups bilinearly
/// interpolate inside the grid and **clamp** to the edges outside it —
/// out-of-range queries never extrapolate past the characterized corner
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NldmTable {
    /// Output-load grid points, in fF (ascending).
    pub load_axis_ff: [f64; NLDM_LOAD_PTS],
    /// Arc delay at each (slew, load) node, in ps.
    pub delay_grid_ps: [[f64; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
    /// Output slew at each (slew, load) node, in ps.
    pub slew_grid_ps: [[f64; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
}

impl NldmTable {
    /// The all-zero table (placeholder storage; never evaluated).
    pub const ZERO: NldmTable = NldmTable {
        load_axis_ff: [0.0; NLDM_LOAD_PTS],
        delay_grid_ps: [[0.0; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
        slew_grid_ps: [[0.0; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
    };

    /// Clamped segment lookup on an ascending axis: the segment index and
    /// the interpolation weight in `[0, 1]` within it.
    ///
    /// Branchless on purpose: the segment index is a popcount of
    /// `x > axis[k]` tests and the weight clamp folds the two
    /// out-of-range cases into the in-range formula — per-lane slews and
    /// loads land in different segments, so data-dependent branches here
    /// would mispredict constantly in the batched evaluator's hot loop.
    /// Bit-compatible with the branchy form: inside a segment the weight
    /// expression is untouched, below the axis it clamps to exactly 0.0,
    /// above to exactly 1.0.
    fn segment(axis: &[f64], x: f64) -> (usize, f64) {
        let last = axis.len() - 1;
        let mut i = 0;
        for &knot in &axis[1..last] {
            i += usize::from(x > knot);
        }
        let w = ((x - axis[i]) / (axis[i + 1] - axis[i])).clamp(0.0, 1.0);
        (i, w)
    }

    /// Interpolates one grid at a resolved segment pair.
    ///
    /// Endpoint-exact lerp form: at a weight of exactly 0 or 1 the
    /// result is the grid node's bits, not a round-trip through a
    /// difference — queries on grid nodes replay characterization
    /// exactly.
    #[inline]
    fn lerp2(
        grid: &[[f64; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
        (i, ws): (usize, f64),
        (j, wc): (usize, f64),
    ) -> f64 {
        let lo = (1.0 - wc) * grid[i][j] + wc * grid[i][j + 1];
        let hi = (1.0 - wc) * grid[i + 1][j] + wc * grid[i + 1][j + 1];
        (1.0 - ws) * lo + ws * hi
    }

    /// Clamped bilinear interpolation of one grid at (slew, load).
    fn bilinear(
        &self,
        grid: &[[f64; NLDM_LOAD_PTS]; NLDM_SLEW_PTS],
        slew_ps: f64,
        load_ff: f64,
    ) -> f64 {
        let s = Self::segment(&NLDM_SLEW_AXIS_PS, slew_ps);
        let c = Self::segment(&self.load_axis_ff, load_ff);
        Self::lerp2(grid, s, c)
    }

    /// Arc delay at (input slew, output load), in ps. For sequential
    /// cells this is the full clock-to-Q launch arc.
    pub fn delay_ps(&self, slew_ps: f64, load_ff: f64) -> f64 {
        self.bilinear(&self.delay_grid_ps, slew_ps, load_ff)
    }

    /// Output slew at (input slew, output load), in ps.
    pub fn output_slew_ps(&self, slew_ps: f64, load_ff: f64) -> f64 {
        self.bilinear(&self.slew_grid_ps, slew_ps, load_ff)
    }

    /// Arc delay and output slew at one (input slew, output load) point,
    /// resolving the two axis searches once and interpolating both grids
    /// from them. Bit-identical to calling [`Self::delay_ps`] then
    /// [`Self::output_slew_ps`] — the identical lerps on the identical
    /// segments — at half the search cost; the compiled evaluators'
    /// propagation loops use this form.
    #[inline]
    pub fn delay_and_slew_ps(&self, slew_ps: f64, load_ff: f64) -> (f64, f64) {
        let s = Self::segment(&NLDM_SLEW_AXIS_PS, slew_ps);
        let c = Self::segment(&self.load_axis_ff, load_ff);
        (
            Self::lerp2(&self.delay_grid_ps, s, c),
            Self::lerp2(&self.slew_grid_ps, s, c),
        )
    }
}

/// Electrical timing view of one cell (possibly CD-annotated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Capacitance presented by one input pin, in fF.
    pub input_cap_ff: f64,
    /// Effective pull-up resistance, in kΩ.
    pub pull_up_r_kohm: f64,
    /// Effective pull-down resistance, in kΩ.
    pub pull_down_r_kohm: f64,
    /// Parasitic (self-load) delay, in ps.
    pub intrinsic_ps: f64,
    /// Output-node junction capacitance, in fF.
    pub output_cap_ff: f64,
    /// Static leakage, in µA.
    pub leakage_ua: f64,
    /// Register arcs (`Some` only for sequential cells).
    pub sequential: Option<SequentialTiming>,
    /// The cell's 2-D (input slew × output load) delay/slew table. For
    /// sequential cells the delay grid is the full clock-to-Q launch arc;
    /// for combinational cells it includes the intrinsic term, so the
    /// table alone is the gate's lumped-load delay.
    pub nldm: NldmTable,
}

impl CellTiming {
    /// Average drive resistance used for generic (non-edge-specific)
    /// delay arcs, in kΩ.
    pub fn drive_r_kohm(&self) -> f64 {
        0.5 * (self.pull_up_r_kohm + self.pull_down_r_kohm)
    }
}

/// A characterized timing library for a cell library + process.
///
/// ```
/// use postopc_sta::TimingLibrary;
/// use postopc_layout::{CellLibrary, TechRules, GateKind, Drive};
/// use postopc_device::ProcessParams;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cells = CellLibrary::new(TechRules::n90())?;
/// let lib = TimingLibrary::characterize(&cells, ProcessParams::n90())?;
/// let inv = lib.drawn_timing(GateKind::Inv, Drive::X1);
/// assert!(inv.input_cap_ff > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimingLibrary {
    process: ProcessParams,
    drawn: HashMap<(GateKind, Drive), CellTiming>,
    drawn_transistors: HashMap<(GateKind, Drive), Vec<TransistorCd>>,
}

impl TimingLibrary {
    /// Characterizes every cell of `cells` under `process`.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors (impossible for valid cell layouts).
    pub fn characterize(cells: &CellLibrary, process: ProcessParams) -> Result<TimingLibrary> {
        let mut drawn = HashMap::new();
        let mut drawn_transistors = HashMap::new();
        for cell in cells.iter() {
            let records: Vec<TransistorCd> = cell
                .transistors()
                .iter()
                .map(|t| {
                    TransistorCd::drawn(t.kind, t.width_nm, t.length_nm, t.input_pin, t.finger)
                })
                .collect();
            let timing = Self::timing_from_transistors(&process, cell.kind(), &records)?;
            drawn.insert((cell.kind(), cell.drive()), timing);
            drawn_transistors.insert((cell.kind(), cell.drive()), records);
        }
        Ok(TimingLibrary {
            process,
            drawn,
            drawn_transistors,
        })
    }

    /// The process parameters of the library.
    pub fn process(&self) -> &ProcessParams {
        &self.process
    }

    /// Drawn-dimension timing of a cell.
    ///
    /// # Panics
    ///
    /// Never in practice: characterization covers every kind/drive pair.
    pub fn drawn_timing(&self, kind: GateKind, drive: Drive) -> CellTiming {
        self.drawn[&(kind, drive)]
    }

    /// The drawn transistor records of a cell (template for annotation).
    ///
    /// # Panics
    ///
    /// Never in practice: characterization covers every kind/drive pair.
    pub fn drawn_transistors(&self, kind: GateKind, drive: Drive) -> &[TransistorCd] {
        &self.drawn_transistors[&(kind, drive)]
    }

    /// Timing of a cell instance with extracted (post-OPC) CDs.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors for non-physical extracted lengths.
    pub fn annotated_timing(
        &self,
        kind: GateKind,
        transistors: &[TransistorCd],
    ) -> Result<CellTiming> {
        Self::timing_from_transistors(&self.process, kind, transistors)
    }

    /// [`annotated_timing`](Self::annotated_timing) through a memoized
    /// [`CharacterizationCache`]: characterization runs once per distinct
    /// `(kind, CD ensemble)` instead of once per gate instance.
    ///
    /// A cache hit replays the exact `CellTiming` bits of the original
    /// characterization — the key quantization is the identity (`f64`
    /// bit patterns), so cached and uncached paths are bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates device-model errors for non-physical extracted lengths.
    pub fn annotated_timing_cached(
        &self,
        cache: &mut CharacterizationCache,
        kind: GateKind,
        transistors: &[TransistorCd],
    ) -> Result<CellTiming> {
        if let Some(timing) = cache.get(kind, transistors) {
            return Ok(timing);
        }
        let timing = Self::timing_from_transistors(&self.process, kind, transistors)?;
        cache.insert(kind, timing);
        Ok(timing)
    }

    /// Core characterization: reduce a transistor ensemble to RC/leakage.
    fn timing_from_transistors(
        process: &ProcessParams,
        kind: GateKind,
        transistors: &[TransistorCd],
    ) -> Result<CellTiming> {
        // Group drive fingers per logic input. Buffers and registers
        // drive their output from the internal (None) stage.
        let drive_group = |t: &TransistorCd| match kind {
            GateKind::Buf | GateKind::Dff => t.input_pin.is_none(),
            _ => t.input_pin.is_some(),
        };
        // Per-input drive buckets in first-seen order. Cells have at most
        // a handful of pins, so linear probes beat hashing — and unlike a
        // HashMap, the summation order is deterministic, which the
        // characterization cache's replay guarantee depends on.
        let mut i_on_n: Vec<(Option<usize>, f64)> = Vec::with_capacity(4);
        let mut i_on_p: Vec<(Option<usize>, f64)> = Vec::with_capacity(4);
        let mut input_pins: Vec<usize> = Vec::with_capacity(4);
        let accumulate =
            |buckets: &mut Vec<(Option<usize>, f64)>, pin: Option<usize>, i: f64| match buckets
                .iter_mut()
                .find(|(p, _)| *p == pin)
            {
                Some(slot) => slot.1 += i,
                None => buckets.push((pin, i)),
            };
        let mut input_cap_sum = 0.0;
        let mut output_cap = 0.0;
        let mut leakage = 0.0;
        for t in transistors {
            // Extraction → STA boundary guard: reject non-physical CDs
            // with a gate-level error before device evaluation, so
            // injected or corrupted annotations surface at the seam
            // instead of as silent timing garbage.
            for (field, value) in [
                ("width_nm", t.width_nm),
                ("l_delay_nm", t.l_delay_nm),
                ("l_leakage_nm", t.l_leakage_nm),
            ] {
                if !value.is_finite() || value <= 0.0 {
                    return Err(StaError::InvalidCd { field, value });
                }
            }
            let delay_dev = Mosfet::new(t.kind, t.width_nm, t.l_delay_nm)?;
            let leak_dev = Mosfet::new(t.kind, t.width_nm, t.l_leakage_nm)?;
            if drive_group(t) {
                let bucket = match t.kind {
                    MosKind::Nmos => &mut i_on_n,
                    MosKind::Pmos => &mut i_on_p,
                };
                accumulate(bucket, t.input_pin, delay_dev.i_on(process));
            }
            if let Some(pin) = t.input_pin {
                input_cap_sum += delay_dev.c_gate(process);
                if !input_pins.contains(&pin) {
                    input_pins.push(pin);
                }
            }
            output_cap += delay_dev.c_drain(process);
            // Roughly half the devices see full V_ds in a static state;
            // stacked devices leak less (taken as 1/stack).
            let stack = match t.kind {
                MosKind::Nmos => kind.nmos_stack(),
                MosKind::Pmos => kind.pmos_stack(),
            } as f64;
            leakage += 0.5 * leak_dev.i_off(process) / stack;
        }
        let n_inputs = input_pins.len().max(1) as f64;
        let input_cap = input_cap_sum / n_inputs;
        let mean_current = |m: &[(Option<usize>, f64)]| {
            if m.is_empty() {
                1e-9
            } else {
                m.iter().map(|(_, i)| i).sum::<f64>() / m.len() as f64
            }
        };
        let r_down = kind.nmos_stack() as f64 * 1000.0 * process.vdd / mean_current(&i_on_n);
        let r_up = kind.pmos_stack() as f64 * 1000.0 * process.vdd / mean_current(&i_on_p);
        let intrinsic = 0.7 * 0.5 * (r_up + r_down) * output_cap;
        // Register arcs: two internal latch stages from clock edge to Q,
        // one stage of settling required at D before the edge. Both scale
        // with the same annotated drive resistances, so post-OPC CDs move
        // register timing too.
        let sequential = kind.is_sequential().then(|| {
            let stage = intrinsic + 0.5 * (r_up + r_down) * input_cap;
            SequentialTiming {
                clk_to_q_ps: 2.0 * stage,
                setup_ps: stage,
            }
        });
        let nldm = Self::build_nldm(
            process,
            input_cap,
            output_cap,
            intrinsic,
            0.5 * (r_up + r_down),
            &sequential,
        );
        Ok(CellTiming {
            input_cap_ff: input_cap,
            pull_up_r_kohm: r_up,
            pull_down_r_kohm: r_down,
            intrinsic_ps: intrinsic,
            output_cap_ff: output_cap,
            leakage_ua: leakage,
            sequential,
            nldm,
        })
    }

    /// Characterizes the cell's 2-D NLDM table at every (slew, load) grid
    /// node. The node model is the RC drive delay plus a slew-dependent
    /// term: a slow input edge holds the gate in its transition region for
    /// a fraction `Vth/Vdd` of the input slew, with the penalty saturating
    /// once the output pole (load ≫ the cell's own capacitance) dominates.
    /// Output slew is the 10–90% RC transition combined in quadrature with
    /// the feed-through of the input edge — deliberately nonlinear in
    /// (slew, load), so bilinear interpolation is a genuine approximation
    /// and exact only at the grid nodes.
    fn build_nldm(
        process: &ProcessParams,
        input_cap: f64,
        output_cap: f64,
        intrinsic: f64,
        drive_r: f64,
        sequential: &Option<SequentialTiming>,
    ) -> NldmTable {
        let launch_ps = match sequential {
            Some(seq) => seq.clk_to_q_ps,
            None => intrinsic,
        };
        // Load scale at which the slew penalty saturates: the cell's own
        // capacitive footprint.
        let c_char = input_cap + output_cap;
        let vth_frac = 0.5 * (process.vth0_n + process.vth0_p) / process.vdd;
        let mut load_axis_ff = [0.0; NLDM_LOAD_PTS];
        for (j, mult) in NLDM_LOAD_MULT.iter().enumerate() {
            load_axis_ff[j] = mult * input_cap;
        }
        let mut delay_grid_ps = [[0.0; NLDM_LOAD_PTS]; NLDM_SLEW_PTS];
        let mut slew_grid_ps = [[0.0; NLDM_LOAD_PTS]; NLDM_SLEW_PTS];
        for (i, &s) in NLDM_SLEW_AXIS_PS.iter().enumerate() {
            for (j, &c) in load_axis_ff.iter().enumerate() {
                delay_grid_ps[i][j] = launch_ps + drive_r * c + vth_frac * s * c / (c + c_char);
                slew_grid_ps[i][j] = (SLEW_GAIN * drive_r * c).hypot(SLEW_FEEDTHROUGH * s);
            }
        }
        NldmTable {
            load_axis_ff,
            delay_grid_ps,
            slew_grid_ps,
        }
    }
}

/// Exact-bit key of one transistor record: the `f64` dimensions are keyed
/// by their IEEE-754 bit patterns (identity quantization), so two records
/// collide only when characterization would compute the very same floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RecordKey {
    kind: MosKind,
    width_bits: u64,
    l_delay_bits: u64,
    l_leakage_bits: u64,
    input_pin: Option<usize>,
    finger: usize,
}

impl RecordKey {
    fn of(t: &TransistorCd) -> RecordKey {
        RecordKey {
            kind: t.kind,
            width_bits: t.width_nm.to_bits(),
            l_delay_bits: t.l_delay_nm.to_bits(),
            l_leakage_bits: t.l_leakage_nm.to_bits(),
            input_pin: t.input_pin,
            finger: t.finger,
        }
    }

    /// Inverse of [`Self::of`] — the key stores the record's exact bit
    /// patterns, so the round-trip reproduces the record bit for bit.
    fn expand(&self) -> TransistorCd {
        TransistorCd {
            kind: self.kind,
            width_nm: f64::from_bits(self.width_bits),
            l_delay_nm: f64::from_bits(self.l_delay_bits),
            l_leakage_nm: f64::from_bits(self.l_leakage_bits),
            input_pin: self.input_pin,
            finger: self.finger,
        }
    }
}

/// Default entry cap of the characterization cache. Corner and extraction
/// workloads deduplicate to a handful of distinct ensembles; a Monte Carlo
/// stream of fresh random CDs would otherwise grow one entry per gate per
/// sample, so past the cap new ensembles are characterized without being
/// stored (existing entries keep hitting). Overridable per process via
/// [`CHAR_CACHE_CAP_ENV`].
pub const CHAR_CACHE_CAP_DEFAULT: usize = 4096;

/// Environment variable overriding the characterization-cache entry cap
/// (positive integer; unset, empty or unparsable values fall back to
/// [`CHAR_CACHE_CAP_DEFAULT`]). Read when a cache is created, following
/// the `POSTOPC_THREADS` precedent.
pub const CHAR_CACHE_CAP_ENV: &str = "POSTOPC_CHAR_CACHE_CAP";

/// Resolves a positive cache cap from an environment variable, falling
/// back to `default` when unset or unparsable.
pub(crate) fn env_cache_cap(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&cap| cap > 0)
        .unwrap_or(default)
}

/// One memoized characterization: the kind + exact record keys it was
/// computed for, and the resulting timing.
type CacheEntry = (GateKind, Box<[RecordKey]>, CellTiming);

/// A memoized characterization cache for
/// [`TimingLibrary::annotated_timing_cached`], keyed by `(GateKind,`
/// exact CD bit patterns`)`.
///
/// Lookups stage the probe key in a reusable buffer, so a cache hit costs
/// one hash and one comparison — no allocation. The cache is plain mutable
/// state: each evaluation scratch (worker) owns one, and because a hit
/// replays the exact bits a miss would compute, results never depend on
/// hit/miss history or cache sharing.
#[derive(Debug)]
pub struct CharacterizationCache {
    /// Hash-bucketed entries; collisions resolved by full-key comparison.
    buckets: HashMap<u64, Vec<CacheEntry>>,
    /// Probe key staging buffer, reused across lookups.
    key_buf: Vec<RecordKey>,
    /// Hash of the last staged probe (consumed by `insert`).
    staged_hash: u64,
    /// Entry cap resolved at construction (env override or default).
    cap: usize,
    entries: usize,
    hits: u64,
    misses: u64,
    /// Insertions refused because the cache was at its cap.
    rejected: u64,
}

impl Default for CharacterizationCache {
    fn default() -> CharacterizationCache {
        CharacterizationCache::new()
    }
}

impl CharacterizationCache {
    /// An empty cache whose entry cap is [`CHAR_CACHE_CAP_DEFAULT`] or the
    /// [`CHAR_CACHE_CAP_ENV`] override, resolved now.
    pub fn new() -> CharacterizationCache {
        Self::with_cap(env_cache_cap(CHAR_CACHE_CAP_ENV, CHAR_CACHE_CAP_DEFAULT))
    }

    /// An empty cache with an explicit entry cap (tests and tools that
    /// should not depend on the process environment).
    pub fn with_cap(cap: usize) -> CharacterizationCache {
        CharacterizationCache {
            buckets: HashMap::new(),
            key_buf: Vec::new(),
            staged_hash: 0,
            cap: cap.max(1),
            entries: 0,
            hits: 0,
            misses: 0,
            rejected: 0,
        }
    }

    /// Number of memoized characterizations.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The entry cap this cache was created with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Lookups that replayed a memoized characterization.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the device model.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Insertions refused because the cache was at its cap (those
    /// ensembles were characterized without being memoized).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Stages the probe key for `(kind, transistors)` and returns the
    /// memoized timing, if present.
    fn get(&mut self, kind: GateKind, transistors: &[TransistorCd]) -> Option<CellTiming> {
        use std::hash::{Hash, Hasher};
        self.key_buf.clear();
        self.key_buf.extend(transistors.iter().map(RecordKey::of));
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        kind.hash(&mut hasher);
        self.key_buf.hash(&mut hasher);
        self.staged_hash = hasher.finish();
        let found = self.buckets.get(&self.staged_hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|(k, key, _)| *k == kind && key[..] == self.key_buf[..])
                .map(|&(_, _, timing)| timing)
        });
        match found {
            Some(timing) => {
                self.hits += 1;
                Some(timing)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoizes `timing` under the key staged by the preceding `get` miss.
    fn insert(&mut self, kind: GateKind, timing: CellTiming) {
        if self.entries >= self.cap {
            self.rejected += 1;
            return;
        }
        self.buckets.entry(self.staged_hash).or_default().push((
            kind,
            self.key_buf.as_slice().into(),
            timing,
        ));
        self.entries += 1;
    }

    /// Snapshot of every memoized entry, in a deterministic order (sorted
    /// by bucket hash, then bucket position) — the serialization view the
    /// warm-artifact store persists. Record keys are expanded back to the
    /// exact [`TransistorCd`]s they were staged from: the key *is* the
    /// record's bit patterns, so the round-trip is lossless.
    pub fn export(&self) -> Vec<CharCacheEntry> {
        let mut hashes: Vec<u64> = self.buckets.keys().copied().collect();
        hashes.sort_unstable();
        let mut out = Vec::with_capacity(self.entries);
        for h in hashes {
            let Some(bucket) = self.buckets.get(&h) else {
                continue;
            };
            for (kind, keys, timing) in bucket {
                out.push(CharCacheEntry {
                    kind: *kind,
                    records: keys.iter().map(RecordKey::expand).collect(),
                    timing: *timing,
                });
            }
        }
        out
    }

    /// Re-memoizes a previously exported entry, staging its key through
    /// the regular probe path so absorbed and natively inserted entries
    /// hash identically. Entries already present (or past the cap) are
    /// left alone; the probe counts toward the miss/hit counters like any
    /// other lookup.
    pub fn absorb(&mut self, entry: &CharCacheEntry) {
        if self.get(entry.kind, &entry.records).is_none() {
            self.insert(entry.kind, entry.timing);
        }
    }
}

/// One exported characterization-cache entry (see
/// [`CharacterizationCache::export`] / [`CharacterizationCache::absorb`]):
/// the exact transistor ensemble the timing was computed for, and the
/// timing itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CharCacheEntry {
    /// Gate kind of the characterized cell.
    pub kind: GateKind,
    /// The exact CD records the timing was memoized under.
    pub records: Vec<TransistorCd>,
    /// The memoized electrical view.
    pub timing: CellTiming,
}

#[cfg(test)]
mod tests {
    use super::*;
    use postopc_layout::TechRules;

    fn library() -> TimingLibrary {
        let cells = CellLibrary::new(TechRules::n90()).expect("cells");
        TimingLibrary::characterize(&cells, ProcessParams::n90()).expect("characterize")
    }

    #[test]
    fn boundary_guard_rejects_non_physical_cds() {
        let lib = library();
        let template = TransistorCd {
            kind: MosKind::Nmos,
            width_nm: 260.0,
            l_delay_nm: 90.0,
            l_leakage_nm: 90.0,
            input_pin: Some(0),
            finger: 0,
        };
        for (field, record) in [
            (
                "l_delay_nm",
                TransistorCd {
                    l_delay_nm: f64::NAN,
                    ..template
                },
            ),
            (
                "l_leakage_nm",
                TransistorCd {
                    l_leakage_nm: f64::NEG_INFINITY,
                    ..template
                },
            ),
            (
                "width_nm",
                TransistorCd {
                    width_nm: 0.0,
                    ..template
                },
            ),
        ] {
            match lib.annotated_timing(GateKind::Inv, &[record]) {
                Err(StaError::InvalidCd { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidCd for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn characterizes_every_cell() {
        let lib = library();
        for kind in GateKind::ALL {
            for drive in Drive::ALL {
                let t = lib.drawn_timing(kind, drive);
                assert!(
                    t.input_cap_ff > 0.1 && t.input_cap_ff < 50.0,
                    "{kind}{drive} cap"
                );
                assert!(t.pull_down_r_kohm > 0.1 && t.pull_down_r_kohm < 100.0);
                assert!(t.intrinsic_ps > 0.0);
                assert!(t.leakage_ua > 0.0);
            }
        }
    }

    #[test]
    fn higher_drive_means_lower_resistance() {
        let lib = library();
        for kind in GateKind::ALL {
            let x1 = lib.drawn_timing(kind, Drive::X1);
            let x4 = lib.drawn_timing(kind, Drive::X4);
            assert!(
                x4.pull_down_r_kohm < 0.5 * x1.pull_down_r_kohm,
                "{kind}: X4 {} vs X1 {}",
                x4.pull_down_r_kohm,
                x1.pull_down_r_kohm
            );
        }
    }

    #[test]
    fn stacks_raise_resistance() {
        let lib = library();
        let inv = lib.drawn_timing(GateKind::Inv, Drive::X1);
        let nand3 = lib.drawn_timing(GateKind::Nand3, Drive::X1);
        assert!(nand3.pull_down_r_kohm > 2.0 * inv.pull_down_r_kohm);
        let nor2 = lib.drawn_timing(GateKind::Nor2, Drive::X1);
        assert!(nor2.pull_up_r_kohm > 1.5 * inv.pull_up_r_kohm);
    }

    #[test]
    fn shorter_annotated_length_speeds_up_and_leaks_more() {
        let lib = library();
        let drawn = lib.drawn_timing(GateKind::Inv, Drive::X1);
        let mut records = lib.drawn_transistors(GateKind::Inv, Drive::X1).to_vec();
        for r in &mut records {
            r.l_delay_nm = 84.0;
            r.l_leakage_nm = 84.0;
        }
        let annotated = lib
            .annotated_timing(GateKind::Inv, &records)
            .expect("annotate");
        assert!(annotated.pull_down_r_kohm < drawn.pull_down_r_kohm);
        assert!(annotated.leakage_ua > 1.5 * drawn.leakage_ua);
    }

    #[test]
    fn fo4_delay_is_physically_plausible() {
        let lib = library();
        let inv = lib.drawn_timing(GateKind::Inv, Drive::X1);
        let fo4 = inv.intrinsic_ps + inv.drive_r_kohm() * 4.0 * inv.input_cap_ff;
        // 90 nm FO4 is ~25-45 ps in silicon; our abstraction should land
        // within a loose factor.
        assert!((5.0..120.0).contains(&fo4), "FO4 = {fo4} ps");
    }

    #[test]
    fn cached_characterization_is_bit_identical_and_counts() {
        let lib = library();
        let mut cache = CharacterizationCache::new();
        let mut records = lib.drawn_transistors(GateKind::Nand2, Drive::X2).to_vec();
        for r in &mut records {
            r.l_delay_nm = 87.25;
            r.l_leakage_nm = 88.5;
        }
        let direct = lib
            .annotated_timing(GateKind::Nand2, &records)
            .expect("direct");
        let miss = lib
            .annotated_timing_cached(&mut cache, GateKind::Nand2, &records)
            .expect("miss");
        let hit = lib
            .annotated_timing_cached(&mut cache, GateKind::Nand2, &records)
            .expect("hit");
        assert_eq!(direct, miss);
        assert_eq!(direct, hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // The tiniest CD change is a different key (exact-bit match).
        records[0].l_delay_nm += f64::EPSILON * 128.0;
        let other = lib
            .annotated_timing_cached(&mut cache, GateKind::Nand2, &records)
            .expect("other");
        assert_ne!(direct, other);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_distinguishes_gate_kinds() {
        // Same record list under a different kind must not collide: the
        // stack factors differ even when the ensembles match.
        let lib = library();
        let mut cache = CharacterizationCache::new();
        let records = vec![
            TransistorCd::drawn(MosKind::Nmos, 420.0, 90.0, Some(0), 0),
            TransistorCd::drawn(MosKind::Pmos, 640.0, 90.0, Some(0), 0),
        ];
        let inv = lib
            .annotated_timing_cached(&mut cache, GateKind::Inv, &records)
            .expect("inv");
        let nand = lib
            .annotated_timing_cached(&mut cache, GateKind::Nand2, &records)
            .expect("nand");
        assert_ne!(inv, nand);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn pmos_weakness_shows_in_pull_up() {
        let lib = library();
        let inv = lib.drawn_timing(GateKind::Inv, Drive::X1);
        assert!(inv.pull_up_r_kohm > inv.pull_down_r_kohm);
    }

    #[test]
    fn nldm_bilinear_is_exact_at_grid_nodes() {
        let lib = library();
        for kind in GateKind::ALL {
            for drive in Drive::ALL {
                let t = lib.drawn_timing(kind, drive);
                for (i, &s) in NLDM_SLEW_AXIS_PS.iter().enumerate() {
                    for (j, &c) in t.nldm.load_axis_ff.iter().enumerate() {
                        assert_eq!(
                            t.nldm.delay_ps(s, c),
                            t.nldm.delay_grid_ps[i][j],
                            "{kind}{drive} delay node ({i},{j})"
                        );
                        assert_eq!(
                            t.nldm.output_slew_ps(s, c),
                            t.nldm.slew_grid_ps[i][j],
                            "{kind}{drive} slew node ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nldm_extrapolation_clamps_to_the_grid_edges() {
        let lib = library();
        let t = lib.drawn_timing(GateKind::Nand2, Drive::X1);
        let s_min = NLDM_SLEW_AXIS_PS[0];
        let s_max = NLDM_SLEW_AXIS_PS[NLDM_SLEW_PTS - 1];
        let c_min = t.nldm.load_axis_ff[0];
        let c_max = t.nldm.load_axis_ff[NLDM_LOAD_PTS - 1];
        // Below/above the axes: identical to the edge query, never beyond
        // the characterized corner values.
        assert_eq!(
            t.nldm.delay_ps(0.0, c_min * 0.01),
            t.nldm.delay_ps(s_min, c_min)
        );
        assert_eq!(
            t.nldm.delay_ps(s_max * 10.0, c_max * 10.0),
            t.nldm.delay_grid_ps[NLDM_SLEW_PTS - 1][NLDM_LOAD_PTS - 1]
        );
        assert_eq!(
            t.nldm.output_slew_ps(s_max * 10.0, c_max * 10.0),
            t.nldm.slew_grid_ps[NLDM_SLEW_PTS - 1][NLDM_LOAD_PTS - 1]
        );
        // A wildly out-of-range query stays within the grid's value range.
        let max_delay = t.nldm.delay_grid_ps[NLDM_SLEW_PTS - 1][NLDM_LOAD_PTS - 1];
        assert!(t.nldm.delay_ps(1e6, 1e6) <= max_delay);
    }

    #[test]
    fn nldm_delay_is_monotone_in_load_and_slew() {
        let lib = library();
        for kind in GateKind::ALL {
            let t = lib.drawn_timing(kind, Drive::X2);
            let c_lo = t.nldm.load_axis_ff[0];
            let c_hi = t.nldm.load_axis_ff[NLDM_LOAD_PTS - 1];
            // Delay monotone in load at fixed slew (21 loads across the
            // grid, including off-node points).
            for &s in &[NLDM_SLEW_AXIS_PS[0], 20.0, 100.0] {
                let mut prev = f64::NEG_INFINITY;
                for k in 0..=20 {
                    let c = c_lo + (c_hi - c_lo) * (k as f64) / 20.0;
                    let d = t.nldm.delay_ps(s, c);
                    assert!(d >= prev, "{kind}: delay not monotone in load at s={s}");
                    prev = d;
                }
            }
            // And monotone in slew at fixed load.
            for &c in &[c_lo, 0.5 * (c_lo + c_hi), c_hi] {
                let mut prev = f64::NEG_INFINITY;
                for k in 0..=20 {
                    let s = NLDM_SLEW_AXIS_PS[0]
                        + (NLDM_SLEW_AXIS_PS[NLDM_SLEW_PTS - 1] - NLDM_SLEW_AXIS_PS[0])
                            * (k as f64)
                            / 20.0;
                    let d = t.nldm.delay_ps(s, c);
                    assert!(d >= prev, "{kind}: delay not monotone in slew at c={c}");
                    prev = d;
                }
            }
        }
    }

    #[test]
    fn nldm_tables_replay_bit_identically_through_the_cache() {
        // The 2-D table is part of the cached CellTiming: a cache hit must
        // replay every grid value bit for bit, not just the scalar fields.
        let lib = library();
        let mut cache = CharacterizationCache::new();
        let mut records = lib.drawn_transistors(GateKind::Nor2, Drive::X4).to_vec();
        for r in &mut records {
            r.l_delay_nm = 86.75;
            r.l_leakage_nm = 87.125;
        }
        let direct = lib
            .annotated_timing(GateKind::Nor2, &records)
            .expect("direct");
        let miss = lib
            .annotated_timing_cached(&mut cache, GateKind::Nor2, &records)
            .expect("miss");
        let hit = lib
            .annotated_timing_cached(&mut cache, GateKind::Nor2, &records)
            .expect("hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        for t in [&miss, &hit] {
            assert_eq!(direct.nldm.load_axis_ff, t.nldm.load_axis_ff);
            assert_eq!(direct.nldm.delay_grid_ps, t.nldm.delay_grid_ps);
            assert_eq!(direct.nldm.slew_grid_ps, t.nldm.slew_grid_ps);
        }
        // The table responds to annotation: shorter channels drive harder,
        // so every delay node of a faster ensemble is strictly smaller.
        let drawn = lib.drawn_timing(GateKind::Nor2, Drive::X4);
        for r in &mut records {
            r.l_delay_nm = 80.0;
        }
        let fast = lib
            .annotated_timing(GateKind::Nor2, &records)
            .expect("fast");
        for i in 0..NLDM_SLEW_PTS {
            for j in 0..NLDM_LOAD_PTS {
                assert!(fast.nldm.delay_grid_ps[i][j] < drawn.nldm.delay_grid_ps[i][j]);
            }
        }
    }

    #[test]
    fn nldm_slew_dependence_is_visible_and_saturating() {
        // A slower input edge must slow the gate down, and the penalty at
        // heavy load must not exceed the full Vth/Vdd fraction of the
        // extra slew (the node model saturates).
        let lib = library();
        let t = lib.drawn_timing(GateKind::Inv, Drive::X1);
        let c = t.nldm.load_axis_ff[2];
        let fast_edge = t.nldm.delay_ps(NLDM_SLEW_AXIS_PS[0], c);
        let slow_edge = t.nldm.delay_ps(NLDM_SLEW_AXIS_PS[3], c);
        let extra_slew = NLDM_SLEW_AXIS_PS[3] - NLDM_SLEW_AXIS_PS[0];
        assert!(slow_edge > fast_edge + 1.0, "slew penalty too small");
        assert!(slow_edge - fast_edge < extra_slew, "slew penalty too large");
    }

    #[test]
    fn characterization_cache_rejects_at_cap() {
        let lib = library();
        let mut cache = CharacterizationCache::with_cap(1);
        assert_eq!(cache.cap(), 1);
        let drawn = |kind| lib.drawn_transistors(kind, Drive::X1).to_vec();
        lib.annotated_timing_cached(&mut cache, GateKind::Inv, &drawn(GateKind::Inv))
            .expect("first");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.rejected(), 0);
        // A second distinct cell does not fit: characterized but refused.
        lib.annotated_timing_cached(&mut cache, GateKind::Nand2, &drawn(GateKind::Nand2))
            .expect("second");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.rejected(), 1);
        // The resident entry still hits; the refused one misses again.
        let hits = cache.hits();
        lib.annotated_timing_cached(&mut cache, GateKind::Inv, &drawn(GateKind::Inv))
            .expect("hit");
        assert_eq!(cache.hits(), hits + 1);
        lib.annotated_timing_cached(&mut cache, GateKind::Nand2, &drawn(GateKind::Nand2))
            .expect("miss again");
        assert_eq!(cache.rejected(), 2);
    }

    #[test]
    fn env_cap_parsing_falls_back_to_default() {
        // Not set → default; the parser itself rejects zero and garbage.
        assert_eq!(
            env_cache_cap("POSTOPC_TEST_UNSET_CAP_VAR", CHAR_CACHE_CAP_DEFAULT),
            CHAR_CACHE_CAP_DEFAULT
        );
        // with_cap(0) clamps to one resident entry instead of disabling.
        assert_eq!(CharacterizationCache::with_cap(0).cap(), 1);
    }

    #[test]
    fn export_absorb_round_trips_entries() {
        let lib = library();
        let mut cache = CharacterizationCache::new();
        for kind in [GateKind::Inv, GateKind::Nand2, GateKind::Nor2] {
            let records = lib.drawn_transistors(kind, Drive::X1).to_vec();
            lib.annotated_timing_cached(&mut cache, kind, &records)
                .expect("characterize");
        }
        let exported = cache.export();
        assert_eq!(exported.len(), cache.len());
        // Absorbing into a fresh cache reproduces every entry: lookups
        // hit without running the device model.
        let mut warm = CharacterizationCache::new();
        for entry in &exported {
            warm.absorb(entry);
        }
        assert_eq!(warm.len(), exported.len());
        for entry in &exported {
            let timing = lib
                .annotated_timing_cached(&mut warm, entry.kind, &entry.records)
                .expect("lookup");
            assert_eq!(timing, entry.timing);
        }
        // Export order is deterministic: two exports agree exactly.
        assert_eq!(cache.export(), exported);
    }
}
