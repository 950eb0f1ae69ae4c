//! The append side of the journal.

use rossl_model::Instant;
use rossl_trace::Marker;

use crate::codec::encode_marker;
use crate::crc::crc32;
use crate::{KIND_COMMIT, KIND_EVENT, KIND_TELEMETRY, MAGIC};

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
        let crc = crc32(&self.buf[start..]);
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
        let start = self.open(KIND_COMMIT);
        self.buf.extend_from_slice(&self.events_written.to_le_bytes());
        self.seal(start);
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
}
