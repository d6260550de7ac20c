//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each crate; one
//! span's parent is the span open when it started, and spans of one unit
//! of work (an image, a search batch, a fleet scenario) share a group id.
//! Nothing is recorded unless the recorder was created enabled, so an
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span; times are seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exec.rana.conv3`.
    pub name: String,
    /// Start, s.
    pub start: f64,
    /// End, s.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared id of the unit of work the span belongs to.
    pub group: u64,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span named `name` in work group `group`; its parent is
    /// the innermost open span. Returns a handle for [`Self::close`].
    pub fn open(&mut self, name: &str, group: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `handle` from [`Self::open`] (innermost first).
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not the innermost open span.
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
            self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a leaf span named `name` in work group `group`.
    pub fn span<R>(&mut self, name: &str, group: u64, f: impl FnOnce() -> R) -> R {
        let handle = self.open(name, group);
        let out = f();
        self.close(handle);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:?},\"end_s\":{:?},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start, s.end, s.group
            )?;
        }
        out.flush()
    }
}

impl Default for Spans {
    /// A disabled recorder.
    fn default() -> Self {
        Self::new(false)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children are clipped to the
/// parent, and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time per span name, s.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start, end, parent, group: 0 }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let t = self_times(&[span("a", 1.0, 3.5, None)]);
        assert!(close(t[0], 2.5));
    }

    #[test]
    fn nested_children_are_subtracted_per_level() {
        // root [0,10] > mid [1,6] > leaf [2,4]; sibling [7,9] under root.
        let spans = [
            span("root", 0.0, 10.0, None),
            span("mid", 1.0, 6.0, Some(0)),
            span("leaf", 2.0, 4.0, Some(1)),
            span("sib", 7.0, 9.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 10.0 - 5.0 - 2.0));
        assert!(close(t[1], 5.0 - 2.0));
        assert!(close(t[2], 2.0));
        assert!(close(t[3], 2.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [1,5] and [3,8] overlap on [3,5]: union covers [1,8].
        let spans = [
            span("p", 0.0, 10.0, None),
            span("c", 3.0, 8.0, Some(0)),
            span("c", 1.0, 5.0, Some(0)),
            span("c", 2.0, 4.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 3.0), "got {}", t[0]);
        let by_name = self_time_by_name(&spans);
        assert!(close(by_name["c"], 5.0 + 4.0 + 2.0));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans =
            [span("p", 2.0, 6.0, None), span("c", 1.0, 3.0, Some(0)), span("d", 5.0, 9.0, Some(0))];
        assert!(close(self_times(&spans)[0], 2.0));
    }

    #[test]
    fn recorder_links_parents_and_groups() {
        let mut rec = Spans::new(true);
        let outer = rec.open("outer", 7);
        assert_eq!(rec.span("inner", 7, || 1) + 1, 2);
        rec.close(outer);
        rec.span("next", 8, || ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), None));
        assert_eq!((s[1].group, s[2].group), (7, 8));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end && s[0].end <= s[2].start);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut rec = Spans::new(true);
        let a = rec.open("a", 0);
        let _b = rec.open("b", 0);
        rec.close(a);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Spans::new(false);
        assert_eq!(rec.span("x", 0, || 5), 5);
        let h = rec.open("y", 0);
        rec.close(h);
        assert!(rec.spans().is_empty());
    }
}
