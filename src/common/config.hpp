// Minimal key=value configuration parsing for the CLI tools.
//
// Accepts "key=value" tokens (command-line args or file lines; '#' starts
// a comment).  Typed getters with defaults; byte sizes accept K/M/G
// suffixes (binary).  The config remembers which keys a getter read, so a
// tool can reject keys it does not understand (typos, retired options);
// because getters record that, one Config must not be read from several
// threads at once.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace nvm {

class Config {
 public:
  Config() = default;

  // Parse "key=value" tokens; unknown formats are rejected.
  static StatusOr<Config> FromArgs(const std::vector<std::string>& args);
  // Parse a file of "key=value" lines ('#' comments, blank lines ok).
  static StatusOr<Config> FromFile(const std::string& path);

  bool Has(const std::string& key) const { return values_.contains(key); }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  // "64K", "2M", "1G" (binary multiples) or plain byte counts.
  uint64_t GetBytes(const std::string& key, uint64_t fallback = 0) const;

  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  const std::map<std::string, std::string>& values() const { return values_; }

  // Keys present that no getter has read (Has() does not count), sorted.
  std::vector<std::string> UnreadKeys() const;

 private:
  // The value of `key` (nullptr when absent); marks the key read.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace nvm
