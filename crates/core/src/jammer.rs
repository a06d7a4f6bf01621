//! Adversary models: node compromise plus random / reactive jamming
//! (Section IV-B).
//!
//! The jammer 𝒥 controls `z ≪ N` parallel transmitters and, crucially,
//! only the spread codes exposed by the `q` compromised nodes — guessing a
//! fresh `N = 512`-chip code is computationally infeasible. Two behaviours
//! are modelled, matching the Theorem 1 proof exactly:
//!
//! * **Random**: on detecting a transmission, 𝒥 jams with randomly chosen
//!   compromised codes; a message spread with a compromised code is hit
//!   with probability `β = min{z(1+μ)/(cμ), 1}` (HELLO) or
//!   `β′ = min{3z(1+μ)/(cμ), 1}` (the three post-HELLO messages).
//! * **Reactive**: 𝒥 first identifies the code in use; any message spread
//!   with a compromised code is jammed with certainty (the paper's
//!   worst case and the only one it plots).
//!
//! Every D-NDP pair asks the jammer about each of its shared codes, so
//! [`Jammer`] answers "is this code compromised?" from a dense bitset over
//! code ids and keeps the set itself only as a sorted vector, which also
//! fixes the sweep schedule and the [`Jammer::dos_codes`] order. The
//! D-NDP pass asks about a pair's shared codes all at once, as a mask of
//! rounds over a code row, and the jammer answers with the mask of those
//! it jams, drawing what the per-code answers draw.

use crate::params::Params;
use crate::predist::CodeAssignment;
use jrsnd_dsss::code::CodeId;
use jrsnd_sim::rng::SimRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which jamming behaviour the adversary uses.
///
/// `Random` and `Reactive` are the paper's two models (Section IV-B);
/// `Sweep` and `Pulsed` are natural strategy extensions used by the
/// jammer-strategy ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JammerKind {
    /// No jamming (baseline for sanity checks).
    None,
    /// Random jamming: compromised codes picked blindly per message.
    Random,
    /// Reactive jamming: the code in use is identified first (worst case).
    Reactive,
    /// Sweep jamming: the jammer cycles deterministically through its
    /// compromised codes, `z(1+mu)/mu` at a time, covering the whole set
    /// every `ceil(c*mu/(z(1+mu)))` messages. Same average hit rate as
    /// `Random` but without the per-message independence the Theorem 1
    /// analysis assumes.
    Sweep,
    /// Pulsed reactive jamming: a duty-cycled reactive jammer active only
    /// a `duty` fraction of the time (energy-constrained adversary).
    Pulsed {
        /// Fraction of time the jammer is transmitting, in [0, 1].
        duty: f64,
    },
}

impl std::fmt::Display for JammerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JammerKind::None => write!(f, "none"),
            JammerKind::Random => write!(f, "random"),
            JammerKind::Reactive => write!(f, "reactive"),
            JammerKind::Sweep => write!(f, "sweep"),
            JammerKind::Pulsed { duty } => write!(f, "pulsed({duty})"),
        }
    }
}

/// The instantiated adversary for one network instance.
///
/// The compromised codes are kept twice: as a dense bitset over code ids,
/// so [`Jammer::knows_code`] is one word load and a shift, and as the
/// ascending vector read off it (the sweep schedule and the
/// [`Jammer::dos_codes`] order). The bitset takes the codes in any order
/// and with repeats, so the D-NDP drivers hand over the captured nodes'
/// code rows as they are, and no hash set is built on their path.
#[derive(Debug, Clone)]
pub struct Jammer {
    kind: JammerKind,
    /// The compromised codes, ascending.
    compromised: Vec<CodeId>,
    /// Bit `c % 64` of word `c / 64` is set iff code `c` is compromised.
    known: Vec<u64>,
    /// Codes the sweep covers per observed message.
    sweep_width: usize,
    /// Sweep progress (messages observed so far).
    sweep_pos: std::cell::Cell<usize>,
    beta: f64,
    beta_prime: f64,
}

impl Jammer {
    /// Builds the adversary from the compromised codes it obtained, in any
    /// order and with any repeats, and the system parameters (`z`, `μ`,
    /// and the pool size its bitset is sized for).
    pub fn new(
        kind: JammerKind,
        compromised: impl IntoIterator<Item = CodeId>,
        params: &Params,
    ) -> Self {
        let known = code_bits(compromised, params.pool_size());
        let compromised = codes_in(&known);
        let c = compromised.len() as f64;
        let (beta, beta_prime) = if c > 0.0 {
            (
                (params.z as f64 * (1.0 + params.mu) / (c * params.mu)).min(1.0),
                (3.0 * params.z as f64 * (1.0 + params.mu) / (c * params.mu)).min(1.0),
            )
        } else {
            (0.0, 0.0)
        };
        let sweep_width =
            ((params.z as f64 * (1.0 + params.mu) / params.mu).floor() as usize).max(1);
        Jammer {
            kind,
            compromised,
            known,
            sweep_width,
            sweep_pos: std::cell::Cell::new(0),
            beta,
            beta_prime,
        }
    }

    /// The codes the sweep jammer targets for the next observed message,
    /// advancing its schedule.
    fn sweep_window(&self) -> &[CodeId] {
        if self.compromised.is_empty() {
            return &[];
        }
        let start = self.sweep_pos.get() % self.compromised.len();
        self.sweep_pos
            .set(self.sweep_pos.get().wrapping_add(self.sweep_width));
        let end = (start + self.sweep_width).min(self.compromised.len());
        &self.compromised[start..end]
    }

    /// A powerless adversary (no compromised codes).
    pub fn inactive(params: &Params) -> Self {
        Jammer::new(JammerKind::None, [], params)
    }

    /// The behaviour model.
    pub fn kind(&self) -> JammerKind {
        self.kind
    }

    /// Number of compromised codes `c`.
    pub fn compromised_count(&self) -> usize {
        self.compromised.len()
    }

    /// Whether a given code is compromised.
    #[inline]
    pub fn knows_code(&self, code: CodeId) -> bool {
        let c = code.0 as usize;
        self.known
            .get(c / 64)
            .is_some_and(|word| word >> (c % 64) & 1 == 1)
    }

    /// The per-HELLO jam probability `β` (for a compromised code).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The post-HELLO jam probability `β′` (for a compromised code).
    pub fn beta_prime(&self) -> f64 {
        self.beta_prime
    }

    /// Whether 𝒥 jams a HELLO spread with `code`. The `jammer.*` counters
    /// are the caller's: the D-NDP pass tallies every check it makes.
    #[inline]
    pub fn jams_hello(&self, code: CodeId, rng: &mut SimRng) -> bool {
        match self.kind {
            JammerKind::None => false,
            JammerKind::Reactive => self.knows_code(code),
            JammerKind::Random => self.knows_code(code) && rng.gen_bool(self.beta),
            JammerKind::Sweep => self.sweep_window().contains(&code),
            JammerKind::Pulsed { duty } => {
                self.knows_code(code) && rng.gen_bool(duty.clamp(0.0, 1.0))
            }
        }
    }

    /// Whether 𝒥 jams at least one of the three post-HELLO messages of a
    /// sub-session on `code`.
    #[inline]
    pub fn jams_tail(&self, code: CodeId, rng: &mut SimRng) -> bool {
        match self.kind {
            JammerKind::None => false,
            JammerKind::Reactive => self.knows_code(code),
            JammerKind::Random => self.knows_code(code) && rng.gen_bool(self.beta_prime),
            JammerKind::Sweep => {
                // Three consecutive sweep windows cover the tail messages.
                (0..3).any(|_| self.sweep_window().contains(&code))
            }
            JammerKind::Pulsed { duty } => {
                self.knows_code(code) && (0..3).any(|_| rng.gen_bool(duty.clamp(0.0, 1.0)))
            }
        }
    }

    /// Jams the rounds of one message over a code row: `rounds` holds a
    /// mask of positions of `row` (bit `i % 64` of word `i / 64` for
    /// `row[i]`), the codes the message is spread with, and `known` the
    /// mask of positions whose code 𝒥 holds. Clears the jammed rounds from
    /// `rounds` and returns how many there were.
    ///
    /// Each round is answered as [`Jammer::jams_hello`] (or
    /// [`Jammer::jams_tail`] for the three post-HELLO messages) answers its
    /// code, in ascending round order, so the RNG sees exactly the draws of
    /// those per-code calls: none for [`JammerKind::None`] and
    /// [`JammerKind::Reactive`], whose answer is `rounds & known`; one
    /// decision per round of `rounds & known` for [`JammerKind::Random`]
    /// and [`JammerKind::Pulsed`]; one sweep-window check per round of
    /// `rounds` for [`JammerKind::Sweep`].
    pub(crate) fn jam_rounds(
        &self,
        tail: bool,
        row: &[CodeId],
        rounds: &mut [u64],
        known: &[u64],
        rng: &mut SimRng,
    ) -> u64 {
        debug_assert_eq!(rounds.len(), known.len());
        let mut jammed_total = 0;
        let mut clear = |word: &mut u64, jammed: u64| {
            *word &= !jammed;
            jammed_total += u64::from(jammed.count_ones());
        };
        match self.kind {
            JammerKind::None => {}
            JammerKind::Reactive => {
                for (word, &known) in rounds.iter_mut().zip(known) {
                    let jammed = *word & known;
                    clear(word, jammed);
                }
            }
            JammerKind::Random | JammerKind::Pulsed { .. } => {
                for ((word, &known), codes) in rounds.iter_mut().zip(known).zip(row.chunks(64)) {
                    let jammed = self.decide(tail, codes, *word & known, rng);
                    clear(word, jammed);
                }
            }
            JammerKind::Sweep => {
                for (word, codes) in rounds.iter_mut().zip(row.chunks(64)) {
                    let jammed = self.decide(tail, codes, *word, rng);
                    clear(word, jammed);
                }
            }
        }
        jammed_total
    }

    /// The rounds of `asked` (positions of `codes`) that the per-code
    /// answer jams, asked in ascending order.
    fn decide(&self, tail: bool, codes: &[CodeId], mut asked: u64, rng: &mut SimRng) -> u64 {
        let mut jammed = 0;
        while asked != 0 {
            let bit = asked & asked.wrapping_neg();
            let code = codes[bit.trailing_zeros() as usize];
            let jams = if tail {
                self.jams_tail(code, rng)
            } else {
                self.jams_hello(code, rng)
            };
            jammed |= if jams { bit } else { 0 };
            asked ^= bit;
        }
        jammed
    }

    /// Each real node's known-round mask, [`CodeAssignment::mask_words`]
    /// words per node written into `out`: bit `r` of node `v`'s mask is
    /// set iff 𝒥 holds `v`'s round-`r` code. The D-NDP drivers build it
    /// once per run, after drawing the adversary.
    pub(crate) fn known_rounds_into(&self, assignment: &CodeAssignment, out: &mut Vec<u64>) {
        out.clear();
        for v in 0..assignment.n_real() {
            out.extend(
                assignment
                    .codes_of(v)
                    .chunks(64)
                    .map(|chunk| self.known_mask(chunk)),
            );
        }
    }

    /// Bit `i` set iff 𝒥 holds `codes[i]`, for up to 64 codes.
    pub(crate) fn known_mask(&self, codes: &[CodeId]) -> u64 {
        codes.iter().enumerate().fold(0, |mask, (i, &code)| {
            mask | u64::from(self.knows_code(code)) << i
        })
    }

    /// The codes 𝒥 can abuse to inject fake neighbor-discovery requests
    /// (the DoS attack of Section V-D), in ascending order.
    pub fn dos_codes(&self) -> impl Iterator<Item = CodeId> + '_ {
        self.compromised.iter().copied()
    }
}

/// A dense bitset over code ids, sized for a pool of `pool_size` codes and
/// grown for any code past it: bit `c % 64` of word `c / 64` is set iff
/// code `c` is among `codes`, however often it repeats there.
pub(crate) fn code_bits(codes: impl IntoIterator<Item = CodeId>, pool_size: usize) -> Vec<u64> {
    let mut bits = vec![0u64; pool_size.div_ceil(64)];
    for CodeId(c) in codes {
        let word = c as usize / 64;
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1u64 << (c % 64);
    }
    bits
}

/// The codes a [`code_bits`] bitset holds, ascending.
pub(crate) fn codes_in(bits: &[u64]) -> Vec<CodeId> {
    let mut codes = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            codes.push(CodeId((i * 64) as u32 + rest.trailing_zeros()));
            rest &= rest - 1;
        }
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn codes(ids: &[u32]) -> HashSet<CodeId> {
        ids.iter().map(|&i| CodeId(i)).collect()
    }

    #[test]
    fn inactive_never_jams() {
        let p = Params::table1();
        let j = Jammer::inactive(&p);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(j.compromised_count(), 0);
        assert!(!j.jams_hello(CodeId(0), &mut rng));
        assert!(!j.jams_tail(CodeId(0), &mut rng));
        assert_eq!(j.beta(), 0.0);
    }

    #[test]
    fn reactive_jams_exactly_compromised_codes() {
        let p = Params::table1();
        let j = Jammer::new(JammerKind::Reactive, codes(&[1, 2, 3]), &p);
        let mut rng = SimRng::seed_from_u64(2);
        assert!(j.jams_hello(CodeId(2), &mut rng));
        assert!(j.jams_tail(CodeId(2), &mut rng));
        assert!(!j.jams_hello(CodeId(9), &mut rng));
        assert!(!j.jams_tail(CodeId(9), &mut rng));
    }

    #[test]
    fn random_jam_rate_matches_beta() {
        let mut p = Params::table1();
        p.z = 10;
        p.mu = 1.0;
        // c = 100 compromised codes: beta = 10*2/100 = 0.2, beta' = 0.6.
        let j = Jammer::new(JammerKind::Random, (0..100).map(CodeId), &p);
        assert!((j.beta() - 0.2).abs() < 1e-12);
        assert!((j.beta_prime() - 0.6).abs() < 1e-12);
        let mut rng = SimRng::seed_from_u64(3);
        let trials = 20_000;
        let hello_hits = (0..trials)
            .filter(|_| j.jams_hello(CodeId(5), &mut rng))
            .count();
        let tail_hits = (0..trials)
            .filter(|_| j.jams_tail(CodeId(5), &mut rng))
            .count();
        let hello_rate = hello_hits as f64 / trials as f64;
        let tail_rate = tail_hits as f64 / trials as f64;
        assert!((hello_rate - 0.2).abs() < 0.02, "hello rate {hello_rate}");
        assert!((tail_rate - 0.6).abs() < 0.02, "tail rate {tail_rate}");
        // Non-compromised codes are never jammed even by the random jammer.
        assert!(!(0..1000).any(|_| j.jams_hello(CodeId(500), &mut rng)));
    }

    #[test]
    fn beta_saturates_with_few_codes() {
        let mut p = Params::table1();
        p.z = 10;
        // c = 5 << z(1+mu)/mu = 20: every compromised code is surely tried.
        let j = Jammer::new(JammerKind::Random, codes(&[0, 1, 2, 3, 4]), &p);
        assert_eq!(j.beta(), 1.0);
        assert_eq!(j.beta_prime(), 1.0);
    }

    #[test]
    fn random_weaker_than_reactive_on_average() {
        let mut p = Params::table1();
        p.z = 10;
        let pool: HashSet<CodeId> = (0..1000).map(CodeId).collect();
        let random = Jammer::new(JammerKind::Random, pool.clone(), &p);
        let reactive = Jammer::new(JammerKind::Reactive, pool, &p);
        let mut rng = SimRng::seed_from_u64(4);
        let rand_hits = (0..5000)
            .filter(|_| random.jams_hello(CodeId(1), &mut rng))
            .count();
        let react_hits = (0..5000)
            .filter(|_| reactive.jams_hello(CodeId(1), &mut rng))
            .count();
        assert_eq!(react_hits, 5000);
        assert!(rand_hits < 1000, "random jammer hit {rand_hits}/5000");
    }

    #[test]
    fn dos_codes_are_the_compromised_set() {
        let p = Params::table1();
        let j = Jammer::new(JammerKind::Reactive, codes(&[7, 8]), &p);
        let dos: Vec<u32> = j.dos_codes().map(|c| c.0).collect();
        assert_eq!(dos, vec![7, 8]);
    }

    #[test]
    fn dos_codes_ascend_over_exactly_the_compromised_set() {
        let p = Params::table1();
        // Enough codes, spread over several bitset words, that a hashed
        // iteration order would show.
        let set: HashSet<CodeId> = (0..400u32).map(|i| CodeId(i * 7919 % 5000)).collect();
        // The same codes as captured rows hand them over: unordered, with
        // repeats, and here with one code past the pool of 5000 and past
        // the last word of a bitset sized for it.
        let past_pool = CodeId(5090);
        let rows: Vec<CodeId> = (0..400u32)
            .rev()
            .chain(0..400)
            .map(|i| CodeId(i * 7919 % 5000))
            .chain([past_pool, past_pool])
            .collect();
        let mut with_past = set.clone();
        with_past.insert(past_pool);
        let check = |j: Jammer, expect: &HashSet<CodeId>| {
            let dos: Vec<CodeId> = j.dos_codes().collect();
            assert!(dos.windows(2).all(|w| w[0] < w[1]), "not ascending");
            assert_eq!(&dos.iter().copied().collect::<HashSet<_>>(), expect);
            assert_eq!(dos.len(), j.compromised_count());
            // The bitset answers membership for exactly that set.
            for c in 0..5100u32 {
                assert_eq!(
                    j.knows_code(CodeId(c)),
                    expect.contains(&CodeId(c)),
                    "code {c}"
                );
            }
            assert!(!j.knows_code(CodeId(u32::MAX)));
        };
        check(Jammer::new(JammerKind::Reactive, set.clone(), &p), &set);
        check(Jammer::new(JammerKind::Reactive, rows, &p), &with_past);
    }

    #[test]
    fn sweep_covers_all_codes_deterministically() {
        let mut p = Params::table1();
        p.z = 10; // window = z(1+mu)/mu = 20 codes per message
        for c in [100u32, 45] {
            let j = Jammer::new(JammerKind::Sweep, (0..c).map(CodeId), &p);
            // ⌈c/20⌉ consecutive windows, each at most 20 wide, cover every
            // compromised code.
            let windows: Vec<Vec<CodeId>> = (0..c.div_ceil(20))
                .map(|_| j.sweep_window().to_vec())
                .collect();
            assert!(windows.iter().all(|w| !w.is_empty() && w.len() <= 20));
            let covered: HashSet<CodeId> = windows.iter().flatten().copied().collect();
            assert_eq!(covered, (0..c).map(CodeId).collect(), "c = {c}");
            if c == 100 {
                // Five full windows, then the sweep wraps to the start.
                assert_eq!(j.sweep_window(), &windows[0][..]);
            }
        }
        let j = Jammer::new(JammerKind::Sweep, (0..100).map(CodeId), &p);
        let mut rng = SimRng::seed_from_u64(1);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| j.jams_hello(CodeId(37), &mut rng))
            .count();
        let rate = hits as f64 / trials as f64;
        // Long-run hit rate equals the random jammer's beta = 0.2.
        assert!((rate - j.beta()).abs() < 0.05, "sweep rate {rate}");
    }

    #[test]
    fn pulsed_scales_with_duty_cycle() {
        let p = Params::table1();
        let pool: HashSet<CodeId> = (0..100).map(CodeId).collect();
        let mut rng = SimRng::seed_from_u64(2);
        let half = Jammer::new(JammerKind::Pulsed { duty: 0.5 }, pool.clone(), &p);
        let off = Jammer::new(JammerKind::Pulsed { duty: 0.0 }, pool.clone(), &p);
        let full = Jammer::new(JammerKind::Pulsed { duty: 1.0 }, pool, &p);
        let trials = 4000;
        let rate = |j: &Jammer, rng: &mut SimRng| {
            (0..trials).filter(|_| j.jams_hello(CodeId(5), rng)).count() as f64 / trials as f64
        };
        assert_eq!(rate(&off, &mut rng), 0.0);
        assert_eq!(rate(&full, &mut rng), 1.0);
        let r = rate(&half, &mut rng);
        assert!((r - 0.5).abs() < 0.05, "duty-0.5 rate {r}");
        // Tail (three chances) is more likely than a single message.
        let tails = (0..trials)
            .filter(|_| half.jams_tail(CodeId(5), &mut rng))
            .count();
        let tail_rate = tails as f64 / trials as f64;
        assert!((tail_rate - 0.875).abs() < 0.05, "tail rate {tail_rate}");
    }

    #[test]
    fn kind_display() {
        assert_eq!(JammerKind::Reactive.to_string(), "reactive");
        assert_eq!(JammerKind::Random.to_string(), "random");
        assert_eq!(JammerKind::None.to_string(), "none");
        assert_eq!(JammerKind::Sweep.to_string(), "sweep");
        assert_eq!(JammerKind::Pulsed { duty: 0.5 }.to_string(), "pulsed(0.5)");
    }
}
