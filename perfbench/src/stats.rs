//! Sample sets, nearest-rank percentiles, and the per-client latency
//! recorder that cuts a real-clock run into windows.

/// Share of windows cut from each end before an end-to-end figure
/// averages them.
pub const TRIM: f64 = 0.1;

/// A bag of measurements.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn append(&mut self, other: &mut Samples) {
        self.0.append(&mut other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 on an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean of what is left when `trim` of the samples (rounded down) is
    /// cut from each end of the sorted set; 0 on an empty set.
    pub fn trimmed_mean(&self, trim: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let cut = ((trim * v.len() as f64) as usize).min((v.len() - 1) / 2);
        let kept = &v[cut..v.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What a latency sample measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Transfer,
    Scan,
    Chunk,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Transfer, Kind::Scan, Kind::Chunk];

    /// The tail percentile reported for this kind.
    pub fn tail(self) -> f64 {
        match self {
            Kind::Chunk => 90.0,
            _ => 99.0,
        }
    }
}

/// Latency samples by kind.
#[derive(Clone, Debug, Default)]
pub struct Lat([Samples; 3]);

impl Lat {
    pub fn get(&self, k: Kind) -> &Samples {
        &self.0[k as usize]
    }

    pub fn append(&mut self, other: &mut Lat) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter_mut()) {
            a.append(b);
        }
    }
}

/// One closed window of one client: its index, the ops it committed, and
/// per kind the sample count, median and tail.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub index: usize,
    pub ops: u64,
    pub n: [usize; 3],
    pub p50: [f64; 3],
    pub tail: [f64; 3],
}

impl Window {
    /// Reduces `lat` to window `index` holding `ops` committed ops.
    pub fn of(index: usize, ops: u64, lat: &Lat) -> Window {
        Window {
            index,
            ops,
            n: Kind::ALL.map(|k| lat.get(k).len()),
            p50: Kind::ALL.map(|k| lat.get(k).median()),
            tail: Kind::ALL.map(|k| lat.get(k).percentile(k.tail())),
        }
    }
}

/// Records one client's latencies. Windowed, it keeps only the open
/// window's samples and reduces each window to a [`Window`] when it
/// closes, so the benchmark's own memory stays flat however long it runs;
/// unwindowed, it keeps every sample.
pub struct Recorder {
    /// Window width and count; `None` keeps everything.
    windows: Option<(f64, usize)>,
    index: usize,
    ops: u64,
    open: Lat,
    closed: Vec<Window>,
}

impl Recorder {
    pub fn windowed(width_s: f64, count: usize) -> Recorder {
        Recorder {
            windows: Some((width_s, count)),
            ..Recorder::unwindowed()
        }
    }

    pub fn unwindowed() -> Recorder {
        Recorder {
            windows: None,
            index: 0,
            ops: 0,
            open: Lat::default(),
            closed: Vec::new(),
        }
    }

    /// Records `us` for a sample of kind `k` that ended `at_s` seconds
    /// into the run, together with the `ops` committed ops that ended
    /// with it. A sample from before the run's measured stretch (negative
    /// `at_s`) is dropped.
    pub fn record(&mut self, at_s: f64, k: Kind, us: f64, ops: u64) {
        if at_s < 0.0 {
            return;
        }
        if let Some((width, _)) = self.windows {
            let index = (at_s / width) as usize;
            while self.index < index {
                self.close();
            }
        }
        self.open.0[k as usize].push(us);
        self.ops += ops;
    }

    fn close(&mut self) {
        if let Some((_, count)) = self.windows {
            if self.index < count {
                self.closed
                    .push(Window::of(self.index, self.ops, &self.open));
            }
            self.open = Lat::default();
        }
        self.index += 1;
        self.ops = 0;
    }

    /// The closed windows (samples past the last whole window are
    /// dropped) and, when unwindowed, every sample.
    pub fn finish(mut self) -> (Vec<Window>, Lat) {
        match self.windows {
            Some((_, count)) => {
                while self.index < count {
                    self.close();
                }
                (self.closed, Lat::default())
            }
            None => (self.closed, self.open),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Samples = (1..=100).map(f64::from).collect();
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
        let one: Samples = [3.0].into_iter().collect();
        assert_eq!(one.percentile(0.0), 3.0);
    }

    #[test]
    fn trimmed_mean_cuts_both_ends() {
        let s: Samples = (1..=10).map(f64::from).chain([1000.0]).collect();
        assert_eq!(s.trimmed_mean(0.0), 1055.0 / 11.0);
        // One sample cut from each end: 2..=10 remain.
        assert_eq!(s.trimmed_mean(0.1), 6.0);
        let two: Samples = [1.0, 3.0].into_iter().collect();
        assert_eq!(two.trimmed_mean(0.5), 2.0);
        assert_eq!(Samples::default().trimmed_mean(0.1), 0.0);
    }

    #[test]
    fn windows_reduce_as_they_close() {
        let mut r = Recorder::windowed(1.0, 3);
        for i in 0..400 {
            let at = i as f64 / 100.0;
            let us = if at < 1.0 { 1.0 } else { 2.0 };
            r.record(at, Kind::Transfer, us, 1);
        }
        let (windows, raw) = r.finish();
        assert_eq!(
            windows.len(),
            3,
            "the fourth second is past the last window"
        );
        assert_eq!(windows[0].p50[0], 1.0);
        assert_eq!(windows[1].p50[0], 2.0);
        assert!(windows.iter().all(|w| w.ops == 100 && w.n[0] == 100));
        assert_eq!(windows[2].n[1], 0);
        assert_eq!(raw.get(Kind::Transfer).len(), 0);

        let mut r = Recorder::unwindowed();
        r.record(5.0, Kind::Scan, 7.0, 1);
        let (windows, raw) = r.finish();
        assert!(windows.is_empty());
        assert_eq!(raw.get(Kind::Scan).median(), 7.0);
    }
}
