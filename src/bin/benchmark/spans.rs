//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Every span has a name, a start, an end and the span that was open when
//! it began (its parent). Spans stay in memory and are written once, as
//! Chrome-trace JSON, when the traced run ends. Recording a span is two
//! `Instant` reads and a `Vec` push; the untraced runs take the same
//! timings (they need them for `setup_s` and `wall_per_sim_s`) and simply
//! never write them out.

use std::time::Instant;
use vnet::sim::telemetry::json;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost span
    /// still open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f();
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Open a span that [`Spans::close`] ends; for phases whose body needs
    /// `&mut self` for nested spans.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Durations of every span named `name`, in order, in seconds.
    pub fn each(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond times),
    /// loadable at <https://ui.perfetto.dev>. The parent's name and index
    /// ride in `args` so the causal tree survives tools that only nest by
    /// time.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        out.push_str(&format!(
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": {}}}}}",
            json::str(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("{}, \"parent_id\": {p}", json::str(self.spans[p].name)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                ",\n  {{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \
                 \"dur\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                json::str(s.name),
                json::num(s.start_ns as f64 / 1e3),
                json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet::sim::telemetry::json::Json;

    #[test]
    fn nested_spans_record_parents_and_export_valid_json() {
        let mut s = Spans::new();
        let outer = s.open("outer");
        s.time("inner", || std::hint::black_box(1 + 1));
        s.time("inner", || ());
        s.close(outer);
        assert_eq!(s.each("inner").len(), 2);
        assert!(s.total("outer") >= s.total("inner"));
        let doc = Json::parse(&s.chrome_trace("t")).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 4, "metadata + three spans");
        let inner = &events[2];
        let parent = inner.get("args").and_then(|a| a.get("parent")).and_then(Json::as_str);
        assert_eq!(parent, Some("outer"));
    }
}
