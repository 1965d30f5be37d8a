#include "common/config.hpp"

#include "common/units.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>

namespace nvm {
namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Status ParseToken(Config& config, const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return InvalidArgument("expected key=value, got '" + token + "'");
  }
  config.Set(Trim(token.substr(0, eq)), Trim(token.substr(eq + 1)));
  return OkStatus();
}

}  // namespace

StatusOr<Config> Config::FromArgs(const std::vector<std::string>& args) {
  Config config;
  for (const auto& arg : args) {
    NVM_RETURN_IF_ERROR(ParseToken(config, arg));
  }
  return config;
}

StatusOr<Config> Config::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open config file '" + path + "'");
  Config config;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    NVM_RETURN_IF_ERROR(ParseToken(config, line));
  }
  return config;
}

const std::string* Config::Find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  read_.insert(key);
  return &it->second;
}

std::vector<std::string> Config::UnreadKeys() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) unread.push_back(key);
  }
  return unread;
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  const std::string* v = Find(key);
  return v == nullptr ? fallback : *v;
}

int64_t Config::GetInt(const std::string& key, int64_t fallback) const {
  const std::string* v = Find(key);
  return v == nullptr ? fallback : std::strtoll(v->c_str(), nullptr, 10);
}

double Config::GetDouble(const std::string& key, double fallback) const {
  const std::string* v = Find(key);
  return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  return *v == "1" || *v == "true" || *v == "yes" || *v == "on";
}

uint64_t Config::GetBytes(const std::string& key, uint64_t fallback) const {
  const std::string* v = Find(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double base = std::strtod(v->c_str(), &end);
  uint64_t mult = 1;
  if (end != nullptr && *end != '\0') {
    switch (std::toupper(static_cast<unsigned char>(*end))) {
      case 'K': mult = 1_KiB; break;
      case 'M': mult = 1_MiB; break;
      case 'G': mult = 1_GiB; break;
      default: return fallback;
    }
  }
  return static_cast<uint64_t>(base * static_cast<double>(mult));
}

}  // namespace nvm
