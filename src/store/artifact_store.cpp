#include "store/artifact_store.hpp"

#include <cerrno>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "core/schedule_io.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/line_io.hpp"
#include "support/parse.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace arl::store {

namespace {

/// Store-private key domain, distinct from the config/schedule/classification
/// fingerprint seeds, so entry names never alias any of the content digests
/// the entry embeds.
constexpr std::uint64_t kEntryKeySeed = 0x5704EULL;

/// Seed of the trailing `end` digest over the entry body.
constexpr std::uint64_t kBodyDigestSeed = 0x5704EB0D7ULL;

std::uint64_t entry_key(const config::Configuration& configuration, radio::ChannelModel model,
                        bool fast_classifier) {
  return support::Hash64(kEntryKeySeed)
      .absorb(config::fingerprint(configuration))
      .absorb(static_cast<std::uint64_t>(model))
      .absorb(fast_classifier ? 1 : 0)
      .digest();
}

std::uint64_t parse_hex64(const std::string& token) {
  const std::optional<std::uint64_t> value = support::parse_hex64(token);
  ARL_EXPECTS(value.has_value(), "artifact field must be 16 lowercase hex digits");
  return *value;
}

/// Composes the full entry file contents (including the `end` line).
std::string compose_entry(std::uint64_t key, const config::Configuration& configuration,
                          radio::ChannelModel model, bool fast_classifier,
                          const core::CompiledConfiguration& compiled) {
  std::ostringstream body;
  body << "arl-artifact 2\n";
  body << "key " << support::hex64(key) << '\n';
  body << "model " << (model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd") << '\n';
  body << "fast " << (fast_classifier ? 1 : 0) << '\n';
  body << "config-fingerprint " << support::hex64(config::fingerprint(configuration)) << '\n';
  body << "classification-fingerprint "
       << support::hex64(core::classification_fingerprint(compiled.classification)) << '\n';
  body << "schedule-fingerprint "
       << support::hex64(core::schedule_fingerprint(*compiled.schedule)) << '\n';
  config::to_text(configuration, body);
  core::classification_to_text(compiled.classification, body);
  core::schedule_to_text(*compiled.schedule, body);
  std::string text = body.str();
  text += "end " + support::hex64(support::hash_text_bulk(text, kBodyDigestSeed)) + '\n';
  return text;
}

/// Parses and fully verifies an entry file's contents against the queried
/// key.  Throws (support::ContractViolation or std::exception) on any
/// corruption or mismatch; the caller turns that into a rejected miss.
core::CompiledConfiguration parse_entry(const std::string& text, std::uint64_t key,
                                        const config::Configuration& configuration,
                                        radio::ChannelModel model, bool fast_classifier) {
  // The `end` line is the last one; everything before it is covered by the
  // digest.  Splitting on the raw bytes (not content lines) means a single
  // flipped bit anywhere — even in a comment — rejects the file.
  ARL_EXPECTS(!text.empty() && text.back() == '\n', "artifact must end in a newline");
  const auto last_line_start = text.rfind('\n', text.size() - 2);
  ARL_EXPECTS(last_line_start != std::string::npos, "artifact has no body");
  const std::string end_line = text.substr(last_line_start + 1, text.size() - last_line_start - 2);
  const std::string body = text.substr(0, last_line_start + 1);
  {
    std::istringstream parse(end_line);
    std::string keyword;
    std::string digest;
    parse >> keyword >> digest;
    ARL_EXPECTS(!parse.fail() && keyword == "end", "artifact missing 'end' digest line");
    ARL_EXPECTS(parse_hex64(digest) == support::hash_text_bulk(body, kBodyDigestSeed),
                "artifact body digest mismatch");
  }

  std::istringstream in(body);
  std::string line;
  std::string keyword;
  std::string value;
  const auto field = [&](const char* name) {
    ARL_EXPECTS(support::next_content_line(in, line), "artifact truncated");
    std::istringstream parse(line);
    parse >> keyword >> value;
    ARL_EXPECTS(!parse.fail() && keyword == name, "malformed artifact header field");
  };

  field("arl-artifact");
  ARL_EXPECTS(value == "2", "unknown artifact format version");
  field("key");
  ARL_EXPECTS(parse_hex64(value) == key, "artifact key mismatch");
  field("model");
  ARL_EXPECTS(value == (model == radio::ChannelModel::CollisionDetection ? "cd" : "nocd"),
              "artifact channel model mismatch");
  field("fast");
  ARL_EXPECTS(value == (fast_classifier ? "1" : "0"), "artifact classifier choice mismatch");
  field("config-fingerprint");
  ARL_EXPECTS(parse_hex64(value) == config::fingerprint(configuration),
              "artifact configuration fingerprint mismatch");
  field("classification-fingerprint");
  const std::uint64_t classification_digest = parse_hex64(value);
  field("schedule-fingerprint");
  const std::uint64_t schedule_digest = parse_hex64(value);

  // The embedded sections.  config::from_text is self-terminating, so the
  // sections parse back to back from the same stream.
  const config::Configuration stored = config::from_text(in);
  ARL_EXPECTS(stored == configuration,
              "artifact stores a different configuration (key collision)");

  core::CompiledConfiguration compiled;
  compiled.classification = core::classification_from_text(in);
  ARL_EXPECTS(core::classification_fingerprint(compiled.classification) == classification_digest,
              "artifact classification fingerprint mismatch");
  ARL_EXPECTS(compiled.classification.model == model, "artifact classification model mismatch");
  auto schedule = std::make_shared<core::CanonicalSchedule>(core::schedule_from_text(in));
  ARL_EXPECTS(core::schedule_fingerprint(*schedule) == schedule_digest,
              "artifact schedule fingerprint mismatch");
  compiled.schedule = std::move(schedule);
  return compiled;
}

/// mkdir -p.  Returns false on failure; true when the directory exists.
bool make_directories(const std::string& path) {
  std::string prefix;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    start = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) {
      continue;
    }
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  struct ::stat info {};
  return ::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode);
}

/// Writes `text` to `final_path` via a private tmp sibling: write, fsync,
/// rename over any entry already there, fsync the directory.  Every entry
/// of a key holds the same bytes, so whichever racing save renames last
/// publishes the same artifact, and a stale or corrupt file is simply
/// replaced.  The tmp file never outlives the call; the final path is never
/// left partial.  Returns false on any I/O failure.
bool write_entry_atomically(const std::string& directory, const std::string& final_path,
                            const std::string& tmp_path, const std::string& text) {
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  std::size_t written = 0;
  bool ok = true;
  while (written < text.size()) {
    const ::ssize_t n = ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return false;
  }
  // Make the publish itself durable.
  const int dir_fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    (void)::close(dir_fd);
  }
  return true;
}

}  // namespace

ArtifactStoreStats ArtifactStoreStats::since(const ArtifactStoreStats& earlier) const {
  ArtifactStoreStats delta;
  delta.hits = hits - earlier.hits;
  delta.misses = misses - earlier.misses;
  delta.rejected = rejected - earlier.rejected;
  delta.saves = saves - earlier.saves;
  delta.skipped = skipped - earlier.skipped;
  delta.errors = errors - earlier.errors;
  return delta;
}

ArtifactStore::ArtifactStore(std::string directory) : directory_(std::move(directory)) {
  ARL_EXPECTS(!directory_.empty(), "artifact store needs a directory path");
  if (!make_directories(directory_)) {
    throw std::runtime_error("artifact store: cannot create directory '" + directory_ + "'");
  }
}

std::string ArtifactStore::entry_path(const config::Configuration& configuration,
                                      radio::ChannelModel model, bool fast_classifier) const {
  return directory_ + '/' + support::hex64(entry_key(configuration, model, fast_classifier)) +
         ".arl";
}

std::shared_ptr<const core::CompiledConfiguration> ArtifactStore::load(
    const config::Configuration& configuration, radio::ChannelModel model, bool fast_classifier) {
  const obs::PhaseTimer span(obs::Phase::StoreLoad);
  const std::uint64_t key = entry_key(configuration, model, fast_classifier);
  const std::string path = directory_ + '/' + support::hex64(key) + ".arl";

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return nullptr;
    }
    std::ostringstream sink;
    sink << in.rdbuf();
    if (!in.good() && !in.eof()) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
      ++stats_.misses;
      return nullptr;
    }
    text = sink.str();
  }

  try {
    auto compiled = std::make_shared<core::CompiledConfiguration>(
        parse_entry(text, key, configuration, model, fast_classifier));
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return compiled;
  } catch (const std::exception&) {
    // Corrupt, truncated, foreign-format or colliding entry: a miss, never
    // a wrong artifact.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    ++stats_.misses;
    return nullptr;
  }
}

void ArtifactStore::save(const config::Configuration& configuration, radio::ChannelModel model,
                         bool fast_classifier, const core::CompiledConfiguration& compiled) {
  ARL_EXPECTS(compiled.schedule != nullptr, "ArtifactStore::save needs the compiled schedule");
  const obs::PhaseTimer span(obs::Phase::StoreSave);
  const std::uint64_t key = entry_key(configuration, model, fast_classifier);
  const std::string path = directory_ + '/' + support::hex64(key) + ".arl";

  std::uint64_t tmp_id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tmp_id = tmp_counter_++;
  }
  const std::string tmp_path =
      path + ".tmp." + std::to_string(::getpid()) + "." + std::to_string(tmp_id);

  const std::string text = compose_entry(key, configuration, model, fast_classifier, compiled);
  const bool saved = write_entry_atomically(directory_, path, tmp_path, text);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (saved) {
    ++stats_.saves;
  } else {
    ++stats_.errors;
  }
}

ArtifactStoreStats ArtifactStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace arl::store
