//! Append-only, checksummed write-ahead log.
//!
//! The durable substrate under the kernel's event log: a single file of
//! length-prefixed, CRC-checked records,
//!
//! ```text
//! ┌────────────┬────────────┬────────────────────┐
//! │ len: u32   │ crc32: u32 │ payload (len bytes)│  … repeated
//! │ little-end │ IEEE, LE   │                    │
//! └────────────┴────────────┴────────────────────┘
//! ```
//!
//! The writer appends whole records and offers *group commit*: every
//! append is written (and therefore survives a process crash — the OS
//! holds the bytes), but the expensive `fsync` only runs every
//! `fsync_every` records, trading a bounded window of machine-crash
//! loss for throughput. [`read_wal`] scans back the longest valid prefix
//! and reports exactly what it dropped: a torn tail (a record cut short
//! by a crash mid-append) truncates cleanly, a checksum mismatch marks
//! the log corrupt from that point on — either way every record before
//! the damage is recovered.
//!
//! Crash injection for the fault-matrix CI lane lives here too
//! ([`CrashSwitch`]): `GAEA_CRASH_POINT={append,fsync,truncate,`
//! `snapshot-write,manifest-flip,post-flip-pre-truncate,`
//! `truncate-rewrite}` plus `GAEA_CRASH_AFTER=<n-events>` abort the
//! process mid-commit at the named boundary, which is how
//! `scripts/crash_matrix.sh` manufactures the torn tails and
//! half-written snapshots this module (and the kernel's compactor
//! above it) must survive. The snapshot-side points fire in whatever
//! thread is writing the snapshot — including the background
//! compactor's worker.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Records larger than this are treated as corruption by the reader — a
/// length prefix this big is a damaged header, not data.
const MAX_RECORD: u32 = 1 << 30;

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time —
/// the workspace vendors no checksum crate, and 256 u32s are cheap.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Where an injected crash fires, relative to one record append or one
/// snapshot-writing sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-append: half the record's bytes reach the file, then abort —
    /// the torn-tail case recovery must truncate.
    Append,
    /// After the record is written (the OS has it) but before the
    /// batch `fsync` — the group-commit boundary.
    Fsync,
    /// During snapshot truncation: after the snapshot pointer flipped,
    /// before the log is actually truncated.
    Truncate,
    /// Mid snapshot write: the side directory holds a half-written
    /// snapshot, the manifest pointer still names the old one.
    SnapshotWrite,
    /// The snapshot directory is complete but the `CURRENT` pointer has
    /// not flipped to it yet.
    ManifestFlip,
    /// The pointer flipped, the log still holds the covered prefix —
    /// the boundary background compaction adds between flip and prefix
    /// truncation.
    PostFlipPreTruncate,
    /// Mid prefix clip: the surviving suffix is durable in the sibling
    /// clip file, but the rename over the live log has not happened —
    /// the log still holds the full covered-prefix + suffix bytes.
    TruncateRewrite,
}

impl CrashPoint {
    /// Parse the `GAEA_CRASH_POINT` spelling of a boundary.
    pub fn parse(spec: &str) -> Result<CrashPoint, String> {
        Ok(match spec {
            "append" => CrashPoint::Append,
            "fsync" => CrashPoint::Fsync,
            "truncate" => CrashPoint::Truncate,
            "snapshot-write" => CrashPoint::SnapshotWrite,
            "manifest-flip" => CrashPoint::ManifestFlip,
            "post-flip-pre-truncate" => CrashPoint::PostFlipPreTruncate,
            "truncate-rewrite" => CrashPoint::TruncateRewrite,
            other => {
                return Err(format!(
                    "unknown crash point {other:?} (valid: append, fsync, truncate, \
                     snapshot-write, manifest-flip, post-flip-pre-truncate, \
                     truncate-rewrite)"
                ))
            }
        })
    }
}

/// Fault injection armed from the environment: `GAEA_CRASH_POINT` names
/// the boundary, `GAEA_CRASH_AFTER=<n>` lets `n` events commit normally
/// first. Disarmed (the common case) when either variable is absent.
///
/// A malformed `GAEA_CRASH_POINT` is rejected *loudly*: the typo is
/// reported on stderr and the injector stays disarmed, so a
/// crash-matrix lane with `fsnyc` fails its "workload must crash"
/// phase with a diagnostic instead of silently testing nothing.
#[derive(Debug, Clone, Copy)]
pub struct CrashSwitch {
    point: Option<CrashPoint>,
    after: u64,
}

impl CrashSwitch {
    /// Arm from `GAEA_CRASH_POINT` / `GAEA_CRASH_AFTER`.
    pub fn from_env() -> CrashSwitch {
        let point = match std::env::var("GAEA_CRASH_POINT") {
            Ok(v) => match CrashPoint::parse(&v) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!(
                        "gaea-store: ignoring GAEA_CRASH_POINT={v:?}: {e}; injector disarmed"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        let after = std::env::var("GAEA_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        CrashSwitch { point, after }
    }

    /// Should the crash fire at `point`, given `events` committed so far?
    pub fn armed(&self, point: CrashPoint, events: u64) -> bool {
        self.point == Some(point) && events >= self.after
    }

    /// Abort the process if armed at `point` — callable from any thread
    /// (the background compactor fires the snapshot-side points from
    /// its worker).
    pub fn fire_if_armed(&self, point: CrashPoint, events: u64) {
        if self.armed(point, events) {
            std::process::abort();
        }
    }
}

/// Sibling path the prefix clip stages its suffix in (`wal.log.clip`):
/// written and synced first, then renamed over the live log so the clip
/// is atomic — a crash leaves either the full old log or the clean
/// suffix, never a half-rewritten mix.
fn clip_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".clip");
    PathBuf::from(os)
}

/// Fsync the directory containing `path`, making a just-completed
/// rename durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Append half of WAL I/O: group-committed record writes.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// `fsync` every N appends; 1 = sync every event.
    fsync_every: u64,
    /// Appends since the last sync.
    unsynced: u64,
    /// Records appended over this writer's lifetime (crash-injection
    /// event counter).
    appended: u64,
    /// Current log length in bytes (valid prefix at open + every
    /// record appended since) — the offset background compaction
    /// records as "the prefix this snapshot covers".
    len: u64,
    injector: CrashSwitch,
}

impl WalWriter {
    /// Open (creating if absent) the log at `path` for appending,
    /// truncating it to `valid_len` first — the caller just scanned the
    /// file with [`read_wal`] and `valid_len` is the end of the last
    /// intact record; anything beyond it is a torn tail to drop.
    ///
    /// A `valid_len` *larger* than the file is rejected: `set_len`
    /// would silently extend the log with zero bytes that the next
    /// scan reads as a corrupt record, so a stale scan (or swapped
    /// paths) surfaces as an error here instead.
    pub fn open(path: &Path, valid_len: u64, fsync_every: u64) -> std::io::Result<WalWriter> {
        // A stale clip file is wreckage of a prefix truncation that
        // crashed before its rename — the live log is still whole, so
        // the staged suffix is redundant and must not shadow it.
        let _ = std::fs::remove_file(clip_path(path));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let actual = file.metadata()?.len();
        if valid_len > actual {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "wal valid prefix {valid_len} exceeds file length {actual} — \
                     stale scan or wrong path; refusing to zero-extend the log"
                ),
            ));
        }
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            appended: 0,
            len: valid_len,
            injector: CrashSwitch::from_env(),
        })
    }

    /// Append one record. The bytes are written to the OS immediately
    /// (a process crash after `append` returns loses nothing); the
    /// durable `fsync` runs once per `fsync_every` appends.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        if self.injector.armed(CrashPoint::Append, self.appended) {
            // Torn-tail injection: half the record reaches the file.
            let half = 8 + payload.len() / 2;
            self.file.write_all(&record[..half])?;
            let _ = self.file.sync_data();
            std::process::abort();
        }
        self.file.write_all(&record)?;
        self.appended += 1;
        self.unsynced += 1;
        self.len += record.len() as u64;
        gaea_obs::metrics().wal_appends.inc();
        if self.injector.armed(CrashPoint::Fsync, self.appended) {
            // The record is in the OS but the batch sync has not run —
            // the group-commit window a machine crash could lose.
            std::process::abort();
        }
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Force the pending batch to disk.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            let m = gaea_obs::metrics();
            m.wal_fsyncs.inc();
            m.wal_batch.record(self.unsynced);
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Abort here if the injector is armed at `point` — the snapshot
    /// path fires the flip/truncate boundaries through this, using the
    /// writer's append counter as the arming clock.
    pub fn crash_point(&self, point: CrashPoint) {
        self.injector.fire_if_armed(point, self.appended);
    }

    /// This writer's crash injector — the background compactor clones
    /// it into its worker so the snapshot-side points fire there too.
    pub fn crash_switch(&self) -> CrashSwitch {
        self.injector
    }

    /// Reset the log to empty — the snapshot that supersedes its events
    /// is durably on disk ([`WalWriter::truncate_prefix`] of the whole
    /// log).
    fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.unsynced = 0;
        self.len = 0;
        Ok(())
    }

    /// Drop exactly the first `prefix` bytes of the log, keeping every
    /// record appended after them — the background-compaction finish:
    /// the snapshot covers the prefix, commits that landed while it was
    /// being written stay in the log.
    ///
    /// The clip is crash-atomic: the surviving suffix is staged in a
    /// sibling `*.clip` file and synced, then renamed over the live log
    /// (directory fsynced) — never an in-place rewrite. A crash at any
    /// point leaves either the full old log (the snapshot watermark
    /// makes re-replaying the covered prefix a no-op) or the clean
    /// suffix; stale clip files are swept by [`WalWriter::open`].
    pub fn truncate_prefix(&mut self, prefix: u64) -> std::io::Result<()> {
        if prefix > self.len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "wal prefix truncation at {prefix} past the log length {}",
                    self.len
                ),
            ));
        }
        if prefix == 0 {
            return Ok(());
        }
        if prefix == self.len {
            return self.truncate();
        }
        let mut suffix = Vec::with_capacity((self.len - prefix) as usize);
        self.file.seek(SeekFrom::Start(prefix))?;
        self.file.read_to_end(&mut suffix)?;
        let clip = clip_path(&self.path);
        {
            let mut staged = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&clip)?;
            staged.write_all(&suffix)?;
            staged.sync_data()?;
        }
        // Fault-injection boundary: the suffix is durable in the clip
        // file but the live log is untouched — the window the old
        // in-place rewrite could corrupt.
        self.injector
            .fire_if_armed(CrashPoint::TruncateRewrite, self.appended);
        std::fs::rename(&clip, &self.path)?;
        sync_parent_dir(&self.path)?;
        // The old handle points at the now-unlinked inode; reopen.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.unsynced = 0;
        self.len = suffix.len() as u64;
        gaea_obs::metrics().wal_compaction_trunc_bytes.add(prefix);
        Ok(())
    }

    /// Records appended over this writer's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Current log length in bytes (valid prefix at open plus every
    /// record appended since).
    pub fn log_len(&self) -> u64 {
        self.len
    }
}

/// Result of scanning a log file: every intact record plus an exact
/// account of what (if anything) was dropped.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Payloads of the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset where the valid prefix ends — open the writer at this
    /// length to drop the damage.
    pub valid_len: u64,
    /// Bytes beyond the valid prefix (0 for a clean log).
    pub dropped_bytes: u64,
    /// True when the damage was a checksum mismatch or absurd length
    /// (bit rot / interleaved write), not just a crash-torn tail.
    pub corrupt: bool,
}

/// Scan the log at `path`, recovering the longest valid record prefix.
/// A missing file is an empty, clean log. The scan stops at the first
/// record that is cut short (torn tail) or fails its checksum
/// (corruption); everything before it is returned.
pub fn read_wal(path: &Path) -> std::io::Result<WalScan> {
    let (file, total) = match File::open(path) {
        Ok(f) => {
            let total = f.metadata()?.len();
            (f, total)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    };
    // Stream record by record instead of slurping the file: replay of a
    // long log holds each payload exactly once (in `records`), never a
    // second full copy of the raw log.
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut scan = WalScan::default();
    let mut pos = 0u64;
    let mut header = [0u8; 8];
    while pos + 8 <= total {
        reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            scan.corrupt = true;
            break;
        }
        let end = pos + 8 + u64::from(len);
        if end > total {
            // Torn tail: the record started but the crash cut it short.
            break;
        }
        let mut payload = vec![0u8; len as usize];
        reader.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            scan.corrupt = true;
            break;
        }
        scan.records.push(payload);
        pos = end;
    }
    scan.valid_len = pos;
    scan.dropped_bytes = total - pos;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gaea-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_read_round_trip() {
        let path = temp("rt");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"").unwrap();
        w.append(b"gamma-gamma").unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert_eq!(scan.dropped_bytes, 0);
        assert!(!scan.corrupt);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp("torn");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"doomed-record").unwrap();
        drop(w);
        // Cut the last record short, as a crash mid-append would.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"keep-me".to_vec()]);
        assert!(scan.dropped_bytes > 0);
        assert!(!scan.corrupt, "a torn tail is a crash, not corruption");
        // Reopening at valid_len drops the tail; new appends land clean.
        let mut w = WalWriter::open(&path, scan.valid_len, 1).unwrap();
        w.append(b"after-recovery").unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(
            scan.records,
            vec![b"keep-me".to_vec(), b"after-recovery".to_vec()]
        );
        assert_eq!(scan.dropped_bytes, 0);
    }

    #[test]
    fn checksum_corruption_is_detected_and_stops_the_scan() {
        let path = temp("crc");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"good").unwrap();
        w.append(b"flipped").unwrap();
        w.append(b"unreachable").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        let second_payload = 8 + 4 + 8;
        bytes[second_payload] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert!(scan.corrupt);
        assert!(scan.dropped_bytes > 0);
    }

    #[test]
    fn missing_file_is_an_empty_clean_log() {
        let path = temp("none");
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.corrupt);
    }

    #[test]
    fn truncate_resets_the_log() {
        let path = temp("trunc");
        let mut w = WalWriter::open(&path, 0, 8).unwrap();
        for i in 0..5 {
            w.append(format!("e{i}").as_bytes()).unwrap();
        }
        w.truncate().unwrap();
        w.append(b"fresh").unwrap();
        w.sync().unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn prefix_truncation_keeps_the_suffix() {
        let path = temp("prefix");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"folded-1").unwrap();
        w.append(b"folded-2").unwrap();
        let covered = w.log_len();
        w.append(b"survivor-a").unwrap();
        w.truncate_prefix(covered).unwrap();
        // Appending keeps working after the rewrite.
        w.append(b"survivor-b").unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(
            scan.records,
            vec![b"survivor-a".to_vec(), b"survivor-b".to_vec()]
        );
        assert!(!scan.corrupt);
        assert_eq!(scan.dropped_bytes, 0);
        // The staged clip file never outlives a successful rewrite.
        assert!(!clip_path(&path).exists());
        // A zero prefix is a no-op, not a pointless rewrite.
        let before = w.log_len();
        w.truncate_prefix(0).unwrap();
        assert_eq!(w.log_len(), before);
        // Truncating the whole log is the full reset.
        let all = w.log_len();
        w.truncate_prefix(all).unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 0);
        // A prefix past the end is an error, not a zero-extend.
        assert!(w.truncate_prefix(10).is_err());
    }

    #[test]
    fn stale_clip_file_is_swept_on_open() {
        let path = temp("clip");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"live-record").unwrap();
        drop(w);
        // A crash between staging the clip and renaming it leaves the
        // sibling file behind; the live log is authoritative and reopen
        // must discard the stale suffix.
        fs::write(clip_path(&path), b"half-finished clip").unwrap();
        let scan = read_wal(&path).unwrap();
        let w = WalWriter::open(&path, scan.valid_len, 1).unwrap();
        assert!(!clip_path(&path).exists());
        drop(w);
        assert_eq!(
            read_wal(&path).unwrap().records,
            vec![b"live-record".to_vec()]
        );
    }

    #[test]
    fn open_rejects_a_valid_len_past_the_file() {
        let path = temp("clamp");
        let mut w = WalWriter::open(&path, 0, 1).unwrap();
        w.append(b"short-log").unwrap();
        drop(w);
        let len = fs::metadata(&path).unwrap().len();
        // A stale scan claiming more valid bytes than exist must not
        // silently extend the file with zeros.
        let err = match WalWriter::open(&path, len + 32, 1) {
            Ok(_) => panic!("zero-extending open must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        // The exact length still opens.
        assert!(WalWriter::open(&path, len, 1).is_ok());
    }

    #[test]
    fn absurd_length_prefix_reads_as_corruption() {
        let path = temp("len");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.corrupt);
    }
}
