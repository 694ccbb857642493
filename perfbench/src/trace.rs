//! In-memory spans recorded around each public call a check makes,
//! written out when the run ends. A disabled recorder only runs the
//! wrapped call, so traced and untraced checks share one code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The check (or aig probe) the span belongs to.
    pub check: usize,
    /// The source design that check ran on.
    pub design: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    check: usize,
    design: &'static str,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            check: 0,
            design: "",
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts the spans of the next check, on `design`.
    pub fn next_check(&mut self, design: &'static str) {
        self.check += 1;
        self.design = design;
    }

    /// Runs `f` inside a span called `name`, a child of the innermost
    /// open span. A span left open by a panic inside `f` keeps zero
    /// length.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let start = self.epoch.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            check: self.check,
            design: self.design,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        let depth = self.open.len();
        self.open.push(id);
        let out = f(self);
        self.open.truncate(depth);
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"check\":{},\"design\":\"{}\",\"parent\":{parent},\
                 \"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.check,
                s.design,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        Ok(())
    }
}

/// Total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    pub calls: usize,
    pub total: Duration,
    /// Duration minus the part covered by child spans.
    pub self_time: Duration,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_time) {
        let l = out.entry(s.name).or_default();
        let d = s.end - s.start;
        l.calls += 1;
        l.total += d;
        l.self_time += d.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("check", |rec| {
            busy(Duration::from_millis(2));
            rec.span("child", |_| busy(Duration::from_millis(3)));
        });
        let l = layers(rec.spans());
        let (check, child) = (l["check"], l["child"]);
        assert_eq!(check.total, check.self_time + child.total);
        assert!(check.self_time >= Duration::from_millis(2));
        assert_eq!(child.total, child.self_time);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let x = rec.span("check", |rec| rec.span("child", |_| 41) + 1);
        assert_eq!(x, 42);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn panicking_span_leaves_recorder_usable() {
        let mut rec = Recorder::new(true);
        rec.span("check", |rec| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rec.span("boom", |_| panic!("injected"))
            }));
            assert!(r.is_err());
        });
        rec.next_check("next");
        rec.span("check", |_| ());
        let s = rec.spans();
        assert_eq!(s[1].start, s[1].end, "the abandoned span keeps zero length");
        assert_eq!(s[2].parent, None, "the next check starts a fresh tree");
        assert_eq!((s[2].check, s[2].design), (1, "next"));
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).expect("in-memory write");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 3);
    }
}
