//! The guard zone, once for the three distributed transforms (the
//! paper's section 4.2 and figure 3): which lines a consumer needs from
//! a holder, the band-major wire payload, and the lookup that fails with
//! [`GUARD_LOST`]. Stripes, blocks and the reconstruction differ only in
//! *which* peers exchange guards and what a line is: a row of the
//! row-filtered bands (striped transform, block column pass), a column
//! of the input block (block row pass), or a row of the four coefficient
//! bands (reconstruction).

use std::collections::HashMap;

use dwt::matrix::Matrix;
use paragon::CommError;

use crate::partition::{contiguous_runs, output_range, Stripe};
use crate::MimdDwtConfig;

/// Protocol detail reported when a guard-zone message was lost beyond
/// the retry budget and the filter pass cannot proceed.
pub(crate) const GUARD_LOST: &str = "guard-zone row missing (message lost beyond the retry budget)";

/// A guard message: `(consumer role, line run [lo, hi), payload)`.
pub(crate) type GuardMsg = (usize, (usize, usize), Vec<f64>);

/// An outgoing role-addressed [`GuardMsg`]: `(dest rank, message, wire bytes)`.
pub(crate) type RoleSend = (usize, GuardMsg, usize);

/// Contiguous runs of the global lines (of a dimension `len` long) that
/// the player of `consumer` needs from `holder` for its forward filter
/// pass. Following the paper ("the depth of the zone is in the order of
/// the filter length"), the window is padded by two lines beyond the
/// mathematically required `f - 2`, as the 1995 implementation
/// conservatively exchanged a full filter-length zone.
pub(crate) fn guard_runs(
    cfg: &MimdDwtConfig,
    consumer: Stripe,
    holder: Stripe,
    len: usize,
) -> Vec<(usize, usize)> {
    let wire = cfg.filter.len() + 2;
    let out = output_range(consumer);
    let needed = (out.lo..out.hi)
        .flat_map(|k| (0..wire).filter_map(move |m| cfg.mode.map((2 * k + m) as isize, len)));
    held_runs(needed, consumer, holder)
}

/// The lines of `needed` that `consumer` lacks and `holder` has, as
/// ascending contiguous runs.
pub(crate) fn held_runs(
    needed: impl IntoIterator<Item = usize>,
    consumer: Stripe,
    holder: Stripe,
) -> Vec<(usize, usize)> {
    let mut lines: Vec<usize> = needed
        .into_iter()
        .filter(|&g| !consumer.contains(g) && holder.contains(g))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    contiguous_runs(&lines)
}

/// The guard message carrying lines `[lo, hi)` of `bands` bands to the
/// player `dst` of `role`, with its wire bytes. The payload is
/// band-major (every line of band 0, then every line of band 1, ...);
/// `line(band, g)` yields line `g` of `band`.
pub(crate) fn pack<L: IntoIterator<Item = f64>>(
    cfg: &MimdDwtConfig,
    (dst, role): (usize, usize),
    bands: usize,
    (lo, hi): (usize, usize),
    line: impl Fn(usize, usize) -> L,
) -> RoleSend {
    let mut payload = Vec::new();
    for band in 0..bands {
        for g in lo..hi {
            payload.extend(line(band, g));
        }
    }
    let bytes = payload.len() * cfg.pixel_bytes;
    (dst, (role, (lo, hi), payload), bytes)
}

/// [`pack`] for bands whose lines are matrix rows, held from global row
/// `holder.lo`.
pub(crate) fn pack_rows(
    cfg: &MimdDwtConfig,
    to: (usize, usize),
    bands: &[&Matrix],
    holder: Stripe,
    run: (usize, usize),
) -> RoleSend {
    pack(cfg, to, bands.len(), run, |b, g| {
        bands[b].row(g - holder.lo).iter().copied()
    })
}

/// Received guard lines of `B` bands each, keyed by consumer role and
/// global line: the one reader of [`pack`]'s layout.
#[derive(Default)]
pub(crate) struct Guards<const B: usize> {
    /// `(role, line)` → (message, line index within its run).
    at: HashMap<(usize, usize), (usize, usize)>,
    /// Per message: run length, line width, payload.
    msgs: Vec<(usize, usize, Vec<f64>)>,
}

impl<const B: usize> Guards<B> {
    /// Index the received messages. A run is never empty, so its line
    /// width is the payload's length over `B` bands of `hi - lo` lines.
    pub fn unpack(received: Vec<(usize, GuardMsg)>) -> Self {
        let mut guards = Self::default();
        for (_, (role, (lo, hi), payload)) in received {
            let run = hi - lo;
            for i in 0..run {
                guards.at.insert((role, lo + i), (guards.msgs.len(), i));
            }
            guards.msgs.push((run, payload.len() / (B * run), payload));
        }
        guards
    }

    /// Lines received, over all messages (no two carry the same line).
    pub fn lines(&self) -> usize {
        self.at.len()
    }

    /// Line `g` of every band for `role`'s player, or [`GUARD_LOST`].
    pub fn get(&self, role: usize, g: usize) -> Result<[&[f64]; B], CommError> {
        let &(m, i) = self
            .at
            .get(&(role, g))
            .ok_or(CommError::Protocol { detail: GUARD_LOST })?;
        let (run, w, payload) = &self.msgs[m];
        Ok(std::array::from_fn(|band| {
            let off = (band * run + i) * w;
            &payload[off..off + w]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt::filters::FilterBank;

    #[test]
    fn unpack_reads_what_pack_wrote() {
        let cfg = crate::MimdDwtConfig::tuned(FilterBank::haar(), 1);
        let low = Matrix::from_fn(4, 3, |r, c| (10 * r + c) as f64);
        let high = Matrix::from_fn(4, 3, |r, c| -((10 * r + c) as f64));
        let holder = Stripe { lo: 4, hi: 8 };
        let (dst, msg, bytes) = pack_rows(&cfg, (1, 9), &[&low, &high], holder, (5, 7));
        assert_eq!((dst, msg.0, msg.1), (1, 9, (5, 7)));
        assert_eq!(bytes, 2 * 2 * 3 * cfg.pixel_bytes);
        let guards = Guards::<2>::unpack(vec![(0, msg)]);
        assert_eq!(guards.lines(), 2);
        for g in 5..7 {
            let [l, h] = guards.get(9, g).unwrap();
            assert_eq!((l, h), (low.row(g - 4), high.row(g - 4)));
        }
        assert!(matches!(
            guards.get(9, 7),
            Err(CommError::Protocol { detail: GUARD_LOST })
        ));
    }

    #[test]
    fn held_runs_keep_only_what_the_holder_has_and_the_consumer_lacks() {
        let consumer = Stripe { lo: 0, hi: 4 };
        let holder = Stripe { lo: 4, hi: 8 };
        let runs = held_runs([9, 3, 5, 4, 5, 7, 12], consumer, holder);
        assert_eq!(runs, vec![(4, 6), (7, 8)]);
    }
}
