#include "store/journal.h"

#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/rng.h"
#include "query/clock.h"

namespace sieve::store {

namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::vector<std::uint8_t> EncodeRegister(const std::string& route,
                                         const std::string& camera_id,
                                         double open_seconds, double fps) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kRegister));
  w.PutString(route);
  w.PutString(camera_id);
  w.PutF64(open_seconds);
  w.PutF64(fps);
  return w.Release();
}

std::vector<std::uint8_t> EncodeInsert(std::uint64_t frame,
                                       std::uint8_t label_bits) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kInsert));
  w.PutVarint(frame);
  w.PutU8(label_bits);
  return w.Release();
}

std::vector<std::uint8_t> EncodeSeal(std::uint64_t total_frames) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(RecordType::kSeal));
  w.PutVarint(total_frames);
  return w.Release();
}

/// Decode one checksummed payload. Returns error on any malformed field —
/// the caller treats that the same as a checksum failure.
Expected<JournalRecord> DecodePayload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  auto tag = r.GetU8();
  if (!tag.ok()) return tag.status();
  JournalRecord rec;
  switch (*tag) {
    case static_cast<std::uint8_t>(RecordType::kRegister): {
      rec.type = RecordType::kRegister;
      auto route = r.GetString();
      if (!route.ok()) return route.status();
      auto camera_id = r.GetString();
      if (!camera_id.ok()) return camera_id.status();
      auto open_s = r.GetF64();
      if (!open_s.ok()) return open_s.status();
      auto fps = r.GetF64();
      if (!fps.ok()) return fps.status();
      // The clock must map frames to time monotonically (the query
      // index's precondition); a CRC-valid record breaking it is corrupt.
      if (!query::CameraClock{*open_s, *fps}.Valid()) {
        return Status::Corrupt("journal: register record has an invalid clock");
      }
      rec.route = std::move(*route);
      rec.camera_id = std::move(*camera_id);
      rec.open_seconds = *open_s;
      rec.fps = *fps;
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kInsert): {
      rec.type = RecordType::kInsert;
      auto frame = r.GetVarint();
      if (!frame.ok()) return frame.status();
      auto bits = r.GetU8();
      if (!bits.ok()) return bits.status();
      rec.frame = *frame;
      rec.label_bits = *bits;
      break;
    }
    case static_cast<std::uint8_t>(RecordType::kSeal): {
      rec.type = RecordType::kSeal;
      auto total = r.GetVarint();
      if (!total.ok()) return total.status();
      rec.total_frames = *total;
      break;
    }
    default:
      return Status::Corrupt("journal: unknown record type " +
                             std::to_string(int(*tag)));
  }
  if (!r.AtEnd()) {
    return Status::Corrupt("journal: trailing bytes in record payload");
  }
  return rec;
}

/// Try to decode the record framed at `pos`. On success returns the record
/// and advances `*next` past it; on failure leaves *next untouched.
Expected<JournalRecord> DecodeFramedAt(std::span<const std::uint8_t> bytes,
                                       std::size_t pos, std::size_t* next) {
  if (bytes.size() - pos < 8) {
    return Status::Corrupt("journal: truncated record header");
  }
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, bytes.data() + pos, 4);
  std::memcpy(&crc, bytes.data() + pos + 4, 4);
  if (len == 0 || len > kMaxRecordBytes) {
    return Status::Corrupt("journal: implausible record length " +
                           std::to_string(len));
  }
  if (bytes.size() - pos - 8 < len) {
    return Status::Corrupt("journal: truncated record payload");
  }
  auto payload = bytes.subspan(pos + 8, len);
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Corrupt("journal: record checksum mismatch");
  }
  auto rec = DecodePayload(payload);
  if (!rec.ok()) return rec.status();
  *next = pos + 8 + len;
  return rec;
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> kTable = BuildCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string JournalFileName(const std::string& route) {
  std::string escaped;
  escaped.reserve(route.size());
  for (char ch : route) {
    const bool safe = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '-' || ch == '.';
    escaped.push_back(safe ? ch : '_');
  }
  // FNV-1a over the *unescaped* route keeps distinct routes that escape to
  // the same string ("cam#1" vs "cam_1") from colliding on disk.
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : route) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ULL;
  }
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x",
                static_cast<std::uint32_t>(h ^ (h >> 32)));
  return escaped + "-" + hex + ".wal";
}

Expected<JournalContents> ReadJournal(const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::vector<std::uint8_t>& bytes = *bytes_or;

  if (bytes.size() < sizeof kJournalMagic ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof kJournalMagic) != 0) {
    return Status::Corrupt("journal: bad magic in " + path);
  }

  JournalContents out;
  out.valid_bytes = sizeof kJournalMagic;
  std::span<const std::uint8_t> span(bytes);
  std::size_t pos = sizeof kJournalMagic;
  while (pos < bytes.size()) {
    std::size_t next = pos;
    auto rec = DecodeFramedAt(span, pos, &next);
    if (!rec.ok()) {
      // Bad record. Torn tail or mid-file corruption? A crash can only tear
      // the *end* of the file, so if any CRC-valid record exists after this
      // point the damage is internal. Bounded forward scan: try every byte
      // offset in the next 1 MiB (or to EOF) as a potential record start.
      const std::size_t scan_end =
          std::min(bytes.size(), pos + (std::size_t{1} << 20));
      bool later_valid = false;
      for (std::size_t probe = pos + 1; probe + 8 <= scan_end; ++probe) {
        std::size_t after = probe;
        if (DecodeFramedAt(span, probe, &after).ok()) {
          later_valid = true;
          break;
        }
      }
      if (later_valid) {
        out.mid_corruption = true;
      } else {
        out.tail_truncated = true;
      }
      break;
    }
    switch (rec->type) {
      case RecordType::kRegister:
        out.registered = true;
        out.route = rec->route;
        out.camera_id = rec->camera_id;
        out.open_seconds = rec->open_seconds;
        out.fps = rec->fps;
        break;
      case RecordType::kInsert:
        out.inserts.push_back({rec->frame, rec->label_bits});
        break;
      case RecordType::kSeal:
        // First seal wins, mirroring QueryIndex::Seal semantics.
        if (!out.sealed) {
          out.sealed = true;
          out.total_frames = rec->total_frames;
        }
        break;
    }
    ++out.records;
    pos = next;
    out.valid_bytes = pos;
  }
  return out;
}

JournalWriter::JournalWriter(std::string path, FsyncPolicy policy,
                             CrashPlan crash, obs::Registry* registry)
    : path_(std::move(path)), policy_(policy), crash_(crash) {
  if (registry != nullptr) {
    m_appends_ = registry->GetCounter("store.journal.appends");
    m_append_bytes_ = registry->GetCounter("store.journal.append_bytes");
    m_fsyncs_ = registry->GetCounter("store.journal.fsyncs");
    m_append_failures_ = registry->GetCounter("store.journal.append_failures");
    m_fsync_ms_ = registry->GetHistogram("store.journal.fsync_ms");
  }
}

JournalWriter::~JournalWriter() { (void)Close(); }

Expected<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path, const FsyncPolicy& policy, const CrashPlan& crash,
    obs::Registry* registry) {
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec) && !ec &&
                      std::filesystem::file_size(path, ec) > 0 && !ec;

  std::uint64_t resume_bytes = sizeof kJournalMagic;
  if (exists) {
    auto contents = ReadJournal(path);
    if (!contents.ok()) return contents.status();
    if (contents->mid_corruption) {
      return Status::Corrupt("journal: mid-file corruption in " + path +
                             "; quarantine before reopening");
    }
    if (contents->tail_truncated) {
      // Drop the torn tail so the next append lands on a record boundary.
      if (::truncate(path.c_str(), off_t(contents->valid_bytes)) != 0) {
        return Status::Internal("journal: truncate(" + path +
                                ") failed: " + std::strerror(errno));
      }
    }
    resume_bytes = contents->valid_bytes;
  }

  std::unique_ptr<JournalWriter> w(
      new JournalWriter(path, policy, crash, registry));
  w->file_ = std::fopen(path.c_str(), exists ? "ab" : "wb");
  if (w->file_ == nullptr) {
    return Status::Internal("journal: fopen(" + path +
                            ") failed: " + std::strerror(errno));
  }
  if (exists) {
    // Resuming: the valid prefix counts as appended+flushed+synced (it was
    // sealed-or-synced by the previous incarnation, or survived its crash).
    w->appended_ = w->flushed_ = w->synced_ = resume_bytes;
  } else {
    if (std::fwrite(kJournalMagic, 1, sizeof kJournalMagic, w->file_) !=
        sizeof kJournalMagic) {
      return Status::Internal("journal: writing magic to " + path + " failed");
    }
    w->appended_ = sizeof kJournalMagic;
    Status s = w->Commit(/*force_sync=*/false);
    if (!s.ok()) return s;
  }
  return w;
}

Status JournalWriter::TriggerCrash(std::uint64_t survivor_bytes) {
  // Flush so every appended byte is in the file, then cut it to the
  // scripted survivor length — the post-mortem view of the scripted death.
  if (file_ != nullptr) {
    (void)std::fflush(file_);
    (void)std::fclose(file_);
    file_ = nullptr;
  }
  crashed_ = true;
  if (::truncate(path_.c_str(), off_t(survivor_bytes)) != 0) {
    return Status::Internal("journal: crash truncate(" + path_ +
                            ") failed: " + std::strerror(errno));
  }
  return Status::Unavailable("journal: scripted crash (survivors=" +
                             std::to_string(survivor_bytes) + " bytes)");
}

Status JournalWriter::AppendFramed(const std::vector<std::uint8_t>& payload) {
  if (crashed_) {
    return Status::Unavailable("journal: writer crashed");
  }
  if (file_ == nullptr) {
    return Status::Precondition("journal: writer closed");
  }

  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  std::uint8_t header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);

  bool failed = std::fwrite(header, 1, 8, file_) != 8 ||
                std::fwrite(payload.data(), 1, len, file_) != len;
  if (failed) {
    if (m_append_failures_ != nullptr) m_append_failures_->Add();
    return Status::Internal("journal: append to " + path_ +
                            " failed: " + std::strerror(errno));
  }
  appended_ += 8 + len;
  records_ += 1;
  if (m_appends_ != nullptr) m_appends_->Add();
  if (m_append_bytes_ != nullptr) m_append_bytes_->Add(8 + len);

  if (crash_.crash_after_bytes > 0 && appended_ >= crash_.crash_after_bytes) {
    return TriggerCrash(std::min(appended_, crash_.crash_after_bytes));
  }
  if (crash_.crash_after_records > 0 && records_ >= crash_.crash_after_records) {
    return TriggerCrash(appended_);
  }

  ++since_flush_;
  ++since_sync_;
  const bool want_flush =
      policy_.flush_every > 0 && since_flush_ >= policy_.flush_every;
  const bool want_sync =
      policy_.fsync_every > 0 && since_sync_ >= policy_.fsync_every;
  if (want_flush || want_sync) {
    return Commit(want_sync);
  }
  return Status::Ok();
}

Status JournalWriter::Commit(bool force_sync) {
  if (std::fflush(file_) != 0) {
    return Status::Internal("journal: fflush(" + path_ +
                            ") failed: " + std::strerror(errno));
  }
  flushed_ = appended_;
  since_flush_ = 0;
  if (force_sync) {
    return DoSync();
  }
  return Status::Ok();
}

Status JournalWriter::DoSync() {
  fsyncs_ += 1;
  if (crash_.crash_at_fsync > 0 && fsyncs_ >= crash_.crash_at_fsync) {
    std::uint64_t survivors = appended_;
    if (crash_.survivors == CrashPlan::Survivors::kSyncedPlusTorn) {
      // Machine-crash model: the durable prefix survives for sure; of the
      // bytes between the last real fsync and now, a seeded-random prefix
      // made it to the platter.
      Rng rng(crash_.seed);
      survivors = synced_ + rng.UniformU64(0, appended_ - synced_);
    }
    return TriggerCrash(survivors);
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (::fdatasync(::fileno(file_)) != 0) {
    return Status::Internal("journal: fdatasync(" + path_ +
                            ") failed: " + std::strerror(errno));
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (m_fsync_ms_ != nullptr) {
    m_fsync_ms_->Record(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  if (m_fsyncs_ != nullptr) m_fsyncs_->Add();
  synced_ = appended_;
  since_sync_ = 0;
  return Status::Ok();
}

Status JournalWriter::AppendRegister(const std::string& route,
                                     const std::string& camera_id,
                                     double open_seconds, double fps) {
  return AppendFramed(EncodeRegister(route, camera_id, open_seconds, fps));
}

Status JournalWriter::AppendInsert(std::uint64_t frame,
                                   std::uint8_t label_bits) {
  return AppendFramed(EncodeInsert(frame, label_bits));
}

Status JournalWriter::AppendSeal(std::uint64_t total_frames) {
  Status s = AppendFramed(EncodeSeal(total_frames));
  if (!s.ok()) return s;
  return Sync();
}

Status JournalWriter::Sync() {
  if (crashed_) return Status::Unavailable("journal: writer crashed");
  if (file_ == nullptr) return Status::Precondition("journal: writer closed");
  return Commit(/*force_sync=*/true);
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return Status::Ok();
  Status s = crashed_ ? Status::Ok() : Commit(/*force_sync=*/true);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return s;
}

}  // namespace sieve::store
