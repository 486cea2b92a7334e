//! Stream identity, and the sample batch that producers submit: owned
//! samples in cycle order. The batch's wire encoding lives in
//! [`crate::wire`].

use adassure_trace::SignalId;

/// Generational handle for one vehicle stream.
///
/// `shard`/`slot` locate the stream's state in the fleet's slabs; `gen`
/// guards against use-after-close: closing a stream bumps the slot's
/// generation, so batches addressed to a retired id are counted as stale
/// and dropped instead of corrupting whatever stream reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    pub(crate) shard: u32,
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl StreamId {
    /// The shard this stream lives on.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Rebuilds an id from its raw `(shard, slot, generation)` triple —
    /// the wire representation. A forged or stale triple is safe: the
    /// fleet rejects it as an unknown shard, unknown slot or stale
    /// generation, counted and typed, never applied.
    pub fn from_raw(shard: u32, slot: u32, gen: u32) -> Self {
        StreamId { shard, slot, gen }
    }

    /// The raw `(shard, slot, generation)` triple, as serialised on the
    /// wire.
    pub fn into_raw(self) -> (u32, u32, u32) {
        (self.shard, self.slot, self.gen)
    }
}

/// One timestamped signal sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Cycle timestamp (s). Samples sharing a timestamp form one cycle.
    pub t: f64,
    /// Signal name.
    pub channel: SignalId,
    /// Sampled value (non-finite values poison the slot, as in
    /// [`adassure_core::OnlineChecker::update`]).
    pub value: f64,
}

/// A batch of samples for one stream, the unit of ingestion.
///
/// Samples must be in non-decreasing timestamp order, and a cycle (a run
/// of equal timestamps) must not span batches: the shard closes the last
/// cycle at the end of the batch, and a later batch reusing that
/// timestamp is rejected as a bad cycle (monotonicity, as in
/// [`adassure_core::OnlineChecker::begin_cycle`]). Producers replaying a
/// trace get this for free by cutting batches at cycle boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    /// Target stream.
    pub stream: StreamId,
    /// The samples, grouped into cycles by equal timestamps.
    pub samples: Vec<Sample>,
}

impl SampleBatch {
    /// A batch addressed to `stream` with no samples yet.
    pub fn new(stream: StreamId) -> Self {
        SampleBatch {
            stream,
            samples: Vec::new(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, t: f64, channel: impl Into<SignalId>, value: f64) {
        self.samples.push(Sample {
            t,
            channel: channel.into(),
            value,
        });
    }
}

/// An owned batch in the wire's columnar shape: its distinct channels in
/// first-appearance order, and per sample the index of its channel among
/// them. The encoder writes these as a frame's name table and index
/// column; the shard resolves each table entry to a checker slot once per
/// batch.
#[derive(Debug)]
pub(crate) struct IndexedBatch<'a> {
    pub(crate) batch: &'a SampleBatch,
    pub(crate) channels: Vec<&'a SignalId>,
    pub(crate) indices: Vec<u32>,
}

impl<'a> IndexedBatch<'a> {
    /// Indexes `batch` in one pass. Cycles repeat their channel order, so
    /// the entry after the previous sample's (wrapping to the first) is
    /// tried before the table is scanned.
    pub(crate) fn new(batch: &'a SampleBatch) -> Self {
        let mut channels: Vec<&SignalId> = Vec::new();
        let mut indices = Vec::with_capacity(batch.samples.len());
        let mut next = 0;
        for sample in &batch.samples {
            let guess = if next == channels.len() { 0 } else { next };
            let idx = match channels.get(guess) {
                Some(&c) if *c == sample.channel => guess,
                _ => match channels.iter().position(|&c| *c == sample.channel) {
                    Some(i) => i,
                    None => {
                        channels.push(&sample.channel);
                        channels.len() - 1
                    }
                },
            };
            #[allow(clippy::cast_possible_truncation)] // bounded by sample count < u32::MAX
            indices.push(idx as u32);
            next = idx + 1;
        }
        IndexedBatch {
            batch,
            channels,
            indices,
        }
    }
}
