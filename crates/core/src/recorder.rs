//! Thread-safe signal recording shared by the engine, examples and
//! benchmarks.
//!
//! Series are *interned*: each name resolves once to a [`SeriesHandle`]
//! owning its own buffer and lock, so writing never looks a name up. The
//! engine does not lock per sample: each streamer group records its
//! probes into a private column and appends it to every series in one
//! [`SeriesHandle::extend_strided`] call per flush (when the column
//! fills, and before any step call returns, a paced cycle closes or a
//! worker batch is handed back), so between step calls the recorder holds
//! every sample taken. [`SeriesHandle::push`] appends one sample under
//! the series' lock, and the string-addressed [`Recorder::push`] remains
//! as a convenience wrapper for setup-time and test code.

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One series' shared sample buffer.
type SeriesBuf = Arc<Mutex<Vec<(f64, f64)>>>;

/// A pre-resolved, cheaply clonable handle to one recorder series.
///
/// Obtained from [`Recorder::handle`]; pushing through it touches only
/// this series' lock. Handles stay valid across [`Recorder::clear`]
/// (which empties buffers in place).
///
/// # Examples
///
/// ```
/// use urt_core::recorder::Recorder;
///
/// let rec = Recorder::new();
/// let y = rec.handle("y");
/// y.push(0.0, 1.0);
/// y.push(0.1, 2.0);
/// assert_eq!(rec.series("y").len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SeriesHandle {
    buf: SeriesBuf,
}

impl SeriesHandle {
    /// Appends a `(t, value)` sample.
    pub fn push(&self, t: f64, value: f64) {
        self.buf.lock().push((t, value));
    }

    /// Appends one sample per `stride`-wide row of the row-major
    /// `rows`: the row's first value is the sample time and its `lane`-th
    /// value the sample. The series' lock is taken once for the whole
    /// column, which is how the engine flushes its probe columns.
    ///
    /// # Examples
    ///
    /// ```
    /// use urt_core::recorder::Recorder;
    ///
    /// let rec = Recorder::new();
    /// let (a, b) = (rec.handle("a"), rec.handle("b"));
    /// // Two rows of `[t, a, b]`.
    /// let rows = [0.1, 1.0, 10.0, 0.2, 2.0, 20.0];
    /// a.extend_strided(&rows, 3, 1);
    /// b.extend_strided(&rows, 3, 2);
    /// assert_eq!(rec.series("a"), vec![(0.1, 1.0), (0.2, 2.0)]);
    /// assert_eq!(rec.series("b"), vec![(0.1, 10.0), (0.2, 20.0)]);
    /// ```
    ///
    /// # Panics
    ///
    /// If `lane` is not below `stride` or `rows` is not a whole number of
    /// rows.
    pub fn extend_strided(&self, rows: &[f64], stride: usize, lane: usize) {
        assert!(
            lane < stride && rows.len().is_multiple_of(stride),
            "rows are whole `stride`-wide rows"
        );
        let mut buf = self.buf.lock();
        // Grow to the capacities one push at a time reaches (4, then
        // powers of two), so a series recorded column by column is no
        // larger in memory and reallocates no more often.
        let len = buf.len();
        let needed = len + rows.len() / stride;
        if needed > buf.capacity() {
            buf.reserve_exact(needed.next_power_of_two().max(4) - len);
        }
        buf.extend(rows.chunks_exact(stride).map(|row| (row[0], row[lane])));
    }

    /// Number of samples in this series.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.buf.lock().last().copied()
    }
}

/// A cheaply clonable recorder of named time series.
///
/// # Examples
///
/// ```
/// use urt_core::recorder::Recorder;
///
/// let rec = Recorder::new();
/// rec.push("y", 0.0, 1.0);
/// rec.push("y", 0.1, 2.0);
/// assert_eq!(rec.series("y").len(), 2);
/// assert_eq!(rec.last("y"), Some((0.1, 2.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Name → buffer registry. Locked only to intern or enumerate series,
    /// never on the per-sample path.
    registry: Arc<Mutex<BTreeMap<String, SeriesBuf>>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` (creating an empty series if new) and returns its
    /// handle for lock-cheap repeated pushes.
    pub fn handle(&self, name: &str) -> SeriesHandle {
        let mut reg = self.registry.lock();
        if let Some(buf) = reg.get(name) {
            return SeriesHandle { buf: Arc::clone(buf) };
        }
        let buf: SeriesBuf = Arc::default();
        reg.insert(name.to_owned(), Arc::clone(&buf));
        SeriesHandle { buf }
    }

    /// Appends a `(t, value)` sample to the named series.
    pub fn push(&self, name: &str, t: f64, value: f64) {
        self.handle(name).push(t, value);
    }

    /// Copies out one series (empty if unknown).
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        let buf = self.registry.lock().get(name).cloned();
        buf.map(|b| b.lock().clone()).unwrap_or_default()
    }

    /// The last sample of a series.
    pub fn last(&self, name: &str) -> Option<(f64, f64)> {
        let buf = self.registry.lock().get(name).cloned();
        buf.and_then(|b| b.lock().last().copied())
    }

    /// Names of all interned series, sorted.
    pub fn names(&self) -> Vec<String> {
        self.registry.lock().keys().cloned().collect()
    }

    /// Total number of samples across all series.
    pub fn len(&self) -> usize {
        let bufs: Vec<SeriesBuf> = self.registry.lock().values().cloned().collect();
        bufs.iter().map(|b| b.lock().len()).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all samples. Series stay interned so outstanding
    /// [`SeriesHandle`]s remain valid and keep recording into the same
    /// (now empty) buffers.
    pub fn clear(&self) {
        let bufs: Vec<SeriesBuf> = self.registry.lock().values().cloned().collect();
        for b in bufs {
            b.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let r = Recorder::new();
        assert!(r.is_empty());
        r.push("a", 0.0, 1.0);
        r.push("b", 0.0, 2.0);
        r.push("a", 1.0, 3.0);
        assert_eq!(r.len(), 3);
        assert_eq!(r.names(), vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(r.series("a"), vec![(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(r.series("missing"), vec![]);
        assert_eq!(r.last("missing"), None);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.push("x", 0.0, 1.0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn handles_alias_the_named_series() {
        let r = Recorder::new();
        let h = r.handle("x");
        h.push(0.0, 1.0);
        r.push("x", 1.0, 2.0);
        let h2 = r.handle("x");
        h2.push(2.0, 3.0);
        assert_eq!(r.series("x"), vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.last(), Some((2.0, 3.0)));
        assert!(!h.is_empty());
    }

    #[test]
    fn handles_survive_clear() {
        let r = Recorder::new();
        let h = r.handle("x");
        h.push(0.0, 1.0);
        r.clear();
        assert!(h.is_empty());
        h.push(1.0, 2.0);
        assert_eq!(r.series("x"), vec![(1.0, 2.0)], "handle still feeds the recorder");
        assert_eq!(r.names(), vec!["x".to_owned()], "series stay interned across clear");
    }

    #[test]
    fn strided_columns_append_in_row_order() {
        let r = Recorder::new();
        let h = r.handle("x");
        h.push(0.0, -1.0);
        // Three rows of `[t, a0, a1]`; lane 2 is the second value.
        let rows = [1.0, 10.0, 11.0, 2.0, 20.0, 21.0, 3.0, 30.0, 31.0];
        h.extend_strided(&rows, 3, 2);
        h.extend_strided(&[], 3, 1);
        assert_eq!(r.series("x"), vec![(0.0, -1.0), (1.0, 11.0), (2.0, 21.0), (3.0, 31.0)]);
    }

    #[test]
    fn strided_columns_grow_like_single_pushes() {
        // Columns of 15 rows of `[t, v]`, as a K = 64 group flushes them,
        // and of one row, as every `step_once` flushes.
        for rows_per_column in [15, 1] {
            let r = Recorder::new();
            let (columns, pushes) = (r.handle("columns"), r.handle("pushes"));
            let rows: Vec<f64> = (0..2 * rows_per_column).map(|v| v as f64).collect();
            for _ in 0..1005 / rows_per_column {
                columns.extend_strided(&rows, 2, 1);
                (0..rows_per_column).for_each(|_| pushes.push(0.0, 0.0));
                let capacity = |h: &SeriesHandle| h.buf.lock().capacity();
                assert_eq!(capacity(&columns), capacity(&pushes), "{rows_per_column} rows");
            }
            assert_eq!(columns.len(), 1005);
        }
    }

    #[test]
    #[should_panic(expected = "whole `stride`-wide rows")]
    fn strided_columns_refuse_a_partial_row() {
        Recorder::new().handle("x").extend_strided(&[1.0, 2.0, 3.0], 2, 1);
    }

    #[test]
    fn recorder_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<Recorder>();
        assert_ss::<SeriesHandle>();
    }
}
