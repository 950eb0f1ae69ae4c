//! The append side of the journal.

use rossl_model::Instant;
use rossl_trace::Marker;

use crate::codec::encode_marker;
use crate::crc::{crc32, header_state, step8, update};
use crate::{KIND_COMMIT, KIND_EVENT, KIND_TELEMETRY, MAGIC};

/// Raw CRC register after a commit frame's header, which is always
/// `[KIND_COMMIT, 8, 0, 0, 0]`.
const COMMIT_STATE: u32 = header_state(KIND_COMMIT, 8);
/// Raw CRC registers after the headers of the job-free event frames:
/// the timestamp plus `M_ReadS`, `M_Selection` or `M_Idling` (9 bytes),
/// `M_ModeSwitch` (11) or `M_ReadE ⊥` (17).
const EVENT_9_STATE: u32 = header_state(KIND_EVENT, 9);
const EVENT_11_STATE: u32 = header_state(KIND_EVENT, 11);
const EVENT_17_STATE: u32 = header_state(KIND_EVENT, 17);

/// Bytes of a commit frame: header, count, CRC.
const COMMIT_FRAME_LEN: usize = 5 + 8 + 4;

/// The CRC of a whole frame (`kind len payload`). Frames whose header
/// is one of the constant ones above start from its precomputed state
/// and hash only the payload.
fn frame_crc(frame: &[u8]) -> u32 {
    let state = match (frame[0], frame.len() - 5) {
        (KIND_COMMIT, 8) => COMMIT_STATE,
        (KIND_EVENT, 9) => EVENT_9_STATE,
        (KIND_EVENT, 11) => EVENT_11_STATE,
        (KIND_EVENT, 17) => EVENT_17_STATE,
        _ => return crc32(frame),
    };
    !update(state, &frame[5..])
}

/// The commit frame sealing `count` events: its CRC is one slice-by-8
/// step over the count from the constant header state.
fn commit_frame(count: u64) -> [u8; COMMIT_FRAME_LEN] {
    let mut frame = [KIND_COMMIT, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    frame[5..13].copy_from_slice(&count.to_le_bytes());
    frame[13..].copy_from_slice(&(!step8(COMMIT_STATE, count)).to_le_bytes());
    frame
}

/// An in-memory journal being built record by record.
///
/// The writer owns the byte buffer; deployments that persist to real
/// storage flush [`JournalWriter::bytes`] after each append (write-ahead
/// discipline: the marker reaches the journal *before* the scheduler
/// takes the step it describes). Appending is infallible — all
/// validation lives on the [`recover`](crate::recover) side, which must
/// survive arbitrary bytes anyway.
#[derive(Debug, Clone)]
pub struct JournalWriter {
    buf: Vec<u8>,
    events_written: u64,
    commits_written: u64,
}

impl JournalWriter {
    /// Starts a fresh journal containing only the magic header.
    pub fn new() -> JournalWriter {
        JournalWriter {
            buf: MAGIC.to_vec(),
            events_written: 0,
            commits_written: 0,
        }
    }

    /// Opens a record of `kind` with a zero length placeholder and
    /// returns its start offset; the payload is then encoded straight
    /// into the buffer and [`JournalWriter::seal`] closes the frame.
    fn open(&mut self, kind: u8) -> usize {
        let start = self.buf.len();
        self.buf.push(kind);
        self.buf.extend_from_slice(&[0; 4]);
        start
    }

    /// Patches the length of the record opened at `start` and appends
    /// its CRC.
    fn seal(&mut self, start: usize) {
        let len = (self.buf.len() - start - 5) as u32;
        self.buf[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
        let crc = frame_crc(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends one `(marker, timestamp)` event record.
    pub fn append(&mut self, marker: &Marker, at: Instant) {
        let start = self.open(KIND_EVENT);
        self.buf.extend_from_slice(&at.0.to_le_bytes());
        encode_marker(marker, &mut self.buf);
        self.seal(start);
        self.events_written += 1;
    }

    /// Appends one `(marker, timestamp)` event record and the commit
    /// record sealing it — the write-ahead step of a drive loop that
    /// commits every marker: exactly the bytes of
    /// [`JournalWriter::append`] followed by [`JournalWriter::commit`].
    ///
    /// ```
    /// use rossl_journal::JournalWriter;
    /// use rossl_model::Instant;
    /// use rossl_trace::Marker;
    ///
    /// let (mut fused, mut pair) = (JournalWriter::new(), JournalWriter::new());
    /// fused.append_committed(&Marker::Idling, Instant(9));
    /// pair.append(&Marker::Idling, Instant(9));
    /// pair.commit();
    /// assert_eq!(fused.bytes(), pair.bytes());
    /// ```
    pub fn append_committed(&mut self, marker: &Marker, at: Instant) {
        self.append(marker, at);
        self.commit();
    }

    /// Appends one telemetry record: an opaque snapshot blob (the
    /// `rossl-obs` binary format) stamped with the instant it was
    /// taken. Telemetry rides in the same commit discipline as events:
    /// records after the last commit are reported as uncommitted by
    /// recovery.
    pub fn append_telemetry(&mut self, snapshot: &[u8], at: Instant) {
        let start = self.open(KIND_TELEMETRY);
        self.buf.extend_from_slice(&at.0.to_le_bytes());
        self.buf.extend_from_slice(snapshot);
        self.seal(start);
    }

    /// Appends a commit record sealing every event written so far.
    pub fn commit(&mut self) {
        self.buf.extend_from_slice(&commit_frame(self.events_written));
        self.commits_written += 1;
    }

    /// Number of event records appended so far (committed or not).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Number of commit records sealed so far — tracing annotates each
    /// journal-commit span with this sequence number.
    pub fn commits_written(&self) -> u64 {
        self.commits_written
    }

    /// The journal bytes accumulated so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the journal bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for JournalWriter {
    fn default() -> JournalWriter {
        JournalWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossl_model::{Job, JobId, Mode, SocketId, TaskId};

    /// The writer before it encoded in place: every record built its
    /// payload in a fresh `Vec` and copied it into the frame.
    #[derive(Default)]
    struct Oracle {
        buf: Vec<u8>,
        events_written: u64,
    }

    impl Oracle {
        fn new() -> Oracle {
            Oracle { buf: MAGIC.to_vec(), events_written: 0 }
        }

        fn push_record(&mut self, kind: u8, payload: &[u8]) {
            let start = self.buf.len();
            self.buf.push(kind);
            self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(payload);
            let crc = crc32(&self.buf[start..]);
            self.buf.extend_from_slice(&crc.to_le_bytes());
        }

        fn append(&mut self, marker: &Marker, at: Instant) {
            let mut payload = at.0.to_le_bytes().to_vec();
            encode_marker(marker, &mut payload);
            self.push_record(KIND_EVENT, &payload);
            self.events_written += 1;
        }

        fn append_telemetry(&mut self, snapshot: &[u8], at: Instant) {
            let mut payload = at.0.to_le_bytes().to_vec();
            payload.extend_from_slice(snapshot);
            self.push_record(KIND_TELEMETRY, &payload);
        }

        fn commit(&mut self) {
            let payload = self.events_written.to_le_bytes();
            self.push_record(KIND_COMMIT, &payload);
        }
    }

    fn every_marker() -> Vec<Marker> {
        let mut markers = vec![
            Marker::ReadStart,
            Marker::ReadEnd { sock: SocketId(0), job: None },
            Marker::ReadEnd { sock: SocketId(7), job: None },
            Marker::Selection,
            Marker::Idling,
            Marker::ModeSwitch { from: Mode::Lo, to: Mode::Hi },
            Marker::ModeSwitch { from: Mode::Hi, to: Mode::Lo },
        ];
        for len in [0usize, 1, 255] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let job = Job::new(JobId(len as u64 + 40), TaskId(len % 3), data);
            markers.push(Marker::ReadEnd { sock: SocketId(2), job: Some(job.clone()) });
            markers.push(Marker::Dispatch(job.clone()));
            markers.push(Marker::Execution(job.clone()));
            markers.push(Marker::Completion(job));
        }
        markers
    }

    #[test]
    fn in_place_encoding_matches_the_payload_copy_encoder() {
        let mut new = JournalWriter::new();
        let mut old = Oracle::new();
        for (i, marker) in every_marker().iter().enumerate() {
            let at = Instant(i as u64 * 1_000_003);
            new.append(marker, at);
            old.append(marker, at);
            assert_eq!(new.bytes(), old.buf.as_slice(), "append of {marker:?}");
            new.commit();
            old.commit();
            assert_eq!(new.bytes(), old.buf.as_slice(), "commit after {marker:?}");
        }
        for len in [0usize, 1, 255] {
            let snapshot: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            new.append_telemetry(&snapshot, Instant(len as u64));
            old.append_telemetry(&snapshot, Instant(len as u64));
            assert_eq!(new.bytes(), old.buf.as_slice(), "telemetry of {len} bytes");
        }
        assert_eq!(new.events_written(), old.events_written);
    }

    #[test]
    fn append_committed_equals_append_then_commit() {
        // Counters and timestamps at the edges of every byte lane the
        // slice-by-8 step folds. The counter stops one short of
        // `u64::MAX`: the append itself increments it.
        let edges = [0u64, 1, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, u64::MAX - 1];
        for count in edges {
            for at in edges.iter().map(|&t| Instant(t)).chain([Instant(u64::MAX)]) {
                for marker in every_marker() {
                    let mut fused = JournalWriter { events_written: count, ..JournalWriter::new() };
                    let mut pair = fused.clone();
                    let mut old = Oracle { buf: MAGIC.to_vec(), events_written: count };
                    fused.append_committed(&marker, at);
                    pair.append(&marker, at);
                    pair.commit();
                    old.append(&marker, at);
                    old.commit();
                    assert_eq!(fused.bytes(), pair.bytes(), "{marker:?} at {at:?}, count {count}");
                    assert_eq!(fused.bytes(), old.buf.as_slice(), "{marker:?} vs the oracle");
                    assert_eq!(
                        (fused.events_written(), fused.commits_written()),
                        (pair.events_written(), pair.commits_written())
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn header_states_equal_the_crc_of_the_full_frame(
            kind in 0u8..=4,
            len_pick in 0usize..5,
            body in proptest::collection::vec(0u8..=255, 0..40),
        ) {
            // The lengths with a precomputed state, plus the body's own.
            let len = [8, 9, 11, 17, body.len()][len_pick].min(body.len());
            let payload = &body[..len];
            let mut frame = vec![kind];
            frame.extend_from_slice(&(len as u32).to_le_bytes());
            frame.extend_from_slice(payload);
            proptest::prop_assert_eq!(!update(header_state(kind, len as u32), payload), crc32(&frame));
            proptest::prop_assert_eq!(frame_crc(&frame), crc32(&frame));
        }
    }
}
