#include "src/service/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "src/common/check.hpp"
#include "src/service/job.hpp"

namespace sca::service {

namespace fs = std::filesystem;
using common::Json;

namespace {

bool valid_key(const std::string& key) {
  if (key.size() != 16) return false;
  for (char c : key)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace

VerdictCache::VerdictCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  common::require(!ec, "cache: cannot create directory " + dir_ + ": " +
                           ec.message());
}

std::string VerdictCache::path_for(const std::string& key) const {
  return dir_ + "/" + key + ".json";
}

std::optional<Json> VerdictCache::lookup(const std::string& key) const {
  if (dir_.empty() || !valid_key(key)) return std::nullopt;
  std::ifstream in(path_for(key));
  if (!in.good()) return std::nullopt;
  std::string line;
  std::getline(in, line);
  try {
    Json entry = Json::parse(line);
    // Defense in depth: the filename, the stored key, and the engine
    // version must all agree before an entry is served.
    if (entry.get_string("engine", "") != kEngineVersion) return std::nullopt;
    if (entry.get_string("key", "") != key) return std::nullopt;
    const Json* verdict = entry.get("verdict");
    if (!verdict) return std::nullopt;
    return *verdict;
  } catch (const common::Error&) {
    return std::nullopt;  // corrupted entry: a miss, never a crash
  }
}

bool VerdictCache::store(const std::string& key, const Json& verdict) const {
  if (dir_.empty() || !valid_key(key)) return false;
  Json entry = Json::object();
  entry.set("engine", kEngineVersion);
  entry.set("key", key);
  entry.set("verdict", verdict);
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) return false;
    out << entry.dump() << "\n";
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::size_t VerdictCache::size() const {
  if (dir_.empty()) return 0;
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (ec) break;
    if (e.path().extension() == ".json") ++n;
  }
  return n;
}

}  // namespace sca::service
