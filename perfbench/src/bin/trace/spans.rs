//! In-memory call spans. Each traced call records its layer, the session
//! or seed it serves, its parent span and its start and end; the spans are
//! kept in memory and written out once the replay is over. With recording
//! off, [`span`] only calls through, so the same replay runs untraced to
//! measure the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the call belongs to (a metric-name prefix).
    pub layer: &'static str,
    /// Session index or seed the call serves.
    pub id: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start, in nanoseconds since recording started.
    pub start_ns: u64,
    /// End, in nanoseconds since recording started.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Starts a fresh recording (`on`) or turns recording off.
pub fn start(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.epoch = Instant::now();
        r.spans.clear();
        r.stack.clear();
    });
}

/// Stops recording and returns the spans in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Runs `f` inside a span of `layer` serving `id`.
pub fn span<T>(layer: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let index = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            layer,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        r.stack.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index as usize].end_ns = now;
            r.stack.pop();
        });
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.seconds();
        }
    }
    own
}

/// Self time summed per `key(span)`.
pub fn self_by<K: Ord>(spans: &[Span], key: impl Fn(&Span) -> K) -> BTreeMap<K, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_seconds(spans)) {
        *out.entry(key(s)).or_insert(0.0) += own;
    }
    out
}

/// Writes the spans as tab-separated `index layer id parent start_ns end_ns`
/// lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tlayer\tid\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{parent}\t{}\t{}",
            s.layer, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        start(true);
        span("root", 0, || {
            span("a", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("b", 0, || span("a", 0, || ()));
        });
        let spans = finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, 2, "nested span points at its parent");
        let by = self_by(&spans, |s| s.layer);
        let total: f64 = by.values().sum();
        assert!((total - spans[0].seconds()).abs() < 1e-9);
        assert!(by["a"] >= 0.002);
    }

    #[test]
    fn recording_off_records_nothing() {
        start(false);
        assert_eq!(span("a", 0, || 7), 7);
        assert!(finish().is_empty());
    }
}
