//! Property-based tests of the wire codec's framing invariants: a valid
//! multi-frame byte stream decodes to the same frames no matter how the
//! transport fragments it, and truncating it anywhere yields the intact
//! prefix and a clean need-more-bytes state — never an error. The
//! borrowed accessor the server decodes with, `next_frame_ref`, yields
//! exactly the frames `next_frame` does once made owned.
//!
//! One fixed test pins the bytes themselves: the committed
//! `testdata/frames.adwire` holds one frame of every kind, every ack body
//! and every nack reason, and must decode to [`golden_frames`] and
//! re-encode to exactly itself. Its values are integers and exactly
//! representable floats and encoding calls no libm, so the file is the
//! same on every platform; a deliberate format change bumps
//! `wire::VERSION` and replaces the file in the same change.

use adassure_fleet::wire::{
    encode_ack, encode_close_stream, encode_get_metrics, encode_hello, encode_hello_session,
    encode_nack, encode_open_stream, encode_resume, encode_sample_batch, AckBody, Frame,
    FrameDecoder, FrameRef, NackReason, DEFAULT_MAX_FRAME_LEN, VERSION,
};
use adassure_fleet::{SampleBatch, StreamId};
use proptest::prelude::*;

const CHANNELS: [&str; 4] = ["xtrack", "speed", "gnss_x", "yaw"];

const NACK_REASONS: [NackReason; 9] = [
    NackReason::UnknownStream,
    NackReason::StaleGeneration,
    NackReason::UnknownSlot,
    NackReason::Malformed,
    NackReason::Unsupported,
    NackReason::ShuttingDown,
    NackReason::UnknownSession,
    NackReason::ResumeGap,
    NackReason::ConnectionLimit,
];

const GOLDEN: &[u8] = include_bytes!("../testdata/frames.adwire");

fn batch_strategy() -> impl Strategy<Value = SampleBatch> {
    (
        0u32..4,
        0u32..64,
        0u32..4,
        proptest::collection::vec((0u8..4, 1u32..1000, -1000i32..1000), 0..12),
    )
        .prop_map(|(shard, slot, gen, raw)| {
            let mut batch = SampleBatch::new(StreamId::from_raw(shard, slot, gen));
            let mut t = 0.0;
            for (channel, dt_millis, value) in raw {
                t += f64::from(dt_millis) / 1000.0;
                batch.push(t, CHANNELS[channel as usize], f64::from(value) / 10.0);
            }
            batch
        })
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0u64..1_000_000).prop_map(|session| Frame::Hello {
            version: VERSION,
            session,
        }),
        (1u64..1_000_000).prop_map(|seq| Frame::OpenStream { seq, flags: 0 }),
        (1u64..1_000_000, batch_strategy())
            .prop_map(|(seq, batch)| Frame::SampleBatch { seq, batch }),
        (1u64..1_000_000, 0u32..4, 0u32..64, 0u32..4).prop_map(|(seq, shard, slot, gen)| {
            Frame::CloseStream {
                seq,
                stream: StreamId::from_raw(shard, slot, gen),
            }
        }),
        (1u64..1_000_000).prop_map(|seq| Frame::GetMetrics { seq }),
        (1u64..1_000_000, 0u64..1_000_000).prop_map(|(session, last_acked)| Frame::Resume {
            session,
            last_acked,
        }),
        (0u64..1_000_000, 0u64..1_000_000).prop_map(|(seq, next_seq)| Frame::Ack {
            seq,
            body: AckBody::Resumed { next_seq },
        }),
        (0u64..1_000_000, 0u64..1_000_000).prop_map(|(seq, durable_seq)| Frame::Ack {
            seq,
            body: AckBody::BatchApplied { durable_seq },
        }),
        (0u64..1_000_000, proptest::collection::vec(0u8..128, 0..40)).prop_map(
            |(seq, report_json)| Frame::Ack {
                seq,
                body: AckBody::StreamClosed { report_json },
            }
        ),
        (0u64..1_000_000, 0..NACK_REASONS.len(), 0u32..5000).prop_map(|(seq, reason, retry)| {
            Frame::Nack {
                seq,
                reason: NACK_REASONS[reason],
                retry_after_us: retry,
            }
        }),
    ]
}

/// Encodes `frame` with its encoder. A Hello with session 0 takes the bare
/// form, which decodes to the same frame.
fn encode_frame(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello { session: 0, .. } => encode_hello(out),
        Frame::Hello { session, .. } => encode_hello_session(out, *session),
        Frame::OpenStream { seq, .. } => encode_open_stream(out, *seq),
        Frame::SampleBatch { seq, batch } => {
            encode_sample_batch(out, *seq, batch).expect("test channels encode");
        }
        Frame::CloseStream { seq, stream } => encode_close_stream(out, *seq, *stream),
        Frame::GetMetrics { seq } => encode_get_metrics(out, *seq),
        Frame::Resume {
            session,
            last_acked,
        } => encode_resume(out, *session, *last_acked),
        Frame::Ack { seq, body } => encode_ack(out, *seq, body),
        Frame::Nack {
            seq,
            reason,
            retry_after_us,
        } => encode_nack(out, *seq, *reason, *retry_after_us),
    }
}

fn drain(decoder: &mut FrameDecoder) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Some(frame) = decoder.next_frame().expect("valid stream decodes") {
        frames.push(frame);
    }
    frames
}

/// The frames of `testdata/frames.adwire`, with hand-picked values.
fn golden_frames() -> Vec<Frame> {
    let session = 0x0123_4567_89ab_cdef;
    let stream = StreamId::from_raw(3, 17, 2);
    let mut batch = SampleBatch::new(stream);
    batch.push(0.25, "speed", 12.5);
    batch.push(0.25, "yaw", -0.125);
    batch.push(0.5, "speed", 12.75);

    let mut frames = vec![
        Frame::Hello {
            version: VERSION,
            session: 0,
        },
        Frame::Hello {
            version: VERSION,
            session,
        },
        Frame::Resume {
            session,
            last_acked: 41,
        },
        Frame::OpenStream { seq: 42, flags: 0 },
        Frame::SampleBatch { seq: 43, batch },
        Frame::CloseStream { seq: 44, stream },
        Frame::GetMetrics { seq: 45 },
    ];
    let bodies = [
        AckBody::Hello {
            version: VERSION,
            session,
        },
        AckBody::StreamOpened { stream },
        AckBody::BatchApplied { durable_seq: 40 },
        AckBody::StreamClosed {
            report_json: br#"{"violations":[]}"#.to_vec(),
        },
        AckBody::Metrics {
            summary_json: br#"{"cycles":3}"#.to_vec(),
        },
        AckBody::Resumed { next_seq: 42 },
    ];
    frames.extend(
        bodies
            .into_iter()
            .zip(0..)
            .map(|(body, seq)| Frame::Ack { seq, body }),
    );
    frames.extend(NACK_REASONS.into_iter().zip(100..).map(|(reason, seq)| {
        let retry_after_us = if reason == NackReason::ConnectionLimit {
            250_000
        } else {
            0
        };
        Frame::Nack {
            seq,
            reason,
            retry_after_us,
        }
    }));
    frames
}

#[test]
fn golden_bytes_decode_to_the_frames_and_re_encode_to_themselves() {
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    decoder.feed(GOLDEN);
    let decoded = drain(&mut decoder);
    assert_eq!(decoder.pending(), 0, "trailing bytes after the last frame");
    assert_eq!(decoded, golden_frames());
    let mut encoded = Vec::new();
    for frame in &decoded {
        encode_frame(&mut encoded, frame);
    }
    if let Some(at) =
        (0..encoded.len().max(GOLDEN.len())).find(|&i| encoded.get(i) != GOLDEN.get(i))
    {
        panic!(
            "re-encoding testdata/frames.adwire differs from it at byte {at} \
             ({} bytes encoded, {} committed)",
            encoded.len(),
            GOLDEN.len()
        );
    }
}

proptest! {
    #[test]
    fn borrowed_decode_made_owned_equals_owned_decode(
        frames in proptest::collection::vec(frame_strategy(), 1..20),
    ) {
        let mut bytes = Vec::new();
        for frame in &frames {
            encode_frame(&mut bytes, frame);
        }
        let mut owned = FrameDecoder::new(1 << 20);
        owned.feed(&bytes);
        let mut borrowed = FrameDecoder::new(1 << 20);
        borrowed.feed(&bytes);
        for frame in &frames {
            let via_ref = borrowed
                .next_frame_ref()
                .expect("valid stream decodes")
                .expect("a whole frame is buffered");
            prop_assert_eq!(
                matches!(via_ref, FrameRef::SampleBatch(_)),
                matches!(frame, Frame::SampleBatch { .. }),
                "only a sample batch decodes borrowed"
            );
            let via_ref = via_ref.into_frame();
            prop_assert_eq!(owned.next_frame().expect("valid stream decodes"), Some(via_ref.clone()));
            prop_assert_eq!(&via_ref, frame);
        }
        prop_assert_eq!(borrowed.next_frame_ref().expect("at a frame boundary"), None);
        prop_assert_eq!(borrowed.pending(), 0);
    }

    #[test]
    fn any_fragmentation_reassembles_the_same_frames(
        frames in proptest::collection::vec(frame_strategy(), 1..20),
        chunks in proptest::collection::vec(1usize..64, 1..40),
    ) {
        let mut bytes = Vec::new();
        for frame in &frames {
            encode_frame(&mut bytes, frame);
        }
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut next_chunk = 0;
        while offset < bytes.len() {
            let len = chunks[next_chunk % chunks.len()].min(bytes.len() - offset);
            next_chunk += 1;
            decoder.feed(&bytes[offset..offset + len]);
            offset += len;
            decoded.extend(drain(&mut decoder));
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(decoder.pending(), 0, "no residual bytes after full stream");
    }

    #[test]
    fn any_truncation_point_is_need_more_bytes(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        cut_roll in 0u32..1_000_000,
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = Vec::new();
        for frame in &frames {
            encode_frame(&mut bytes, frame);
            boundaries.push(bytes.len());
        }
        let cut = 1 + (cut_roll as usize) % bytes.len().max(1);
        let mut decoder = FrameDecoder::new(1 << 20);
        decoder.feed(&bytes[..cut]);
        let decoded = drain(&mut decoder);
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        prop_assert_eq!(decoded.len(), whole, "exactly the complete frames decode");
        prop_assert_eq!(&decoded[..], &frames[..whole]);
        // Feeding the rest completes the stream without loss.
        decoder.feed(&bytes[cut..]);
        let rest = drain(&mut decoder);
        prop_assert_eq!(&rest[..], &frames[whole..]);
        prop_assert_eq!(decoder.pending(), 0);
    }
}
