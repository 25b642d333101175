// Strict `--key=value` flag parsing, shared by geer_cli and the
// networked roles (net/roles.cc): a numeric value must be spelled out
// completely and fit its type, or the flag is a usage error.

#ifndef GEER_UTIL_FLAGS_H_
#define GEER_UTIL_FLAGS_H_

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace geer {

/// The number spelled by all of `text`, or nullopt when `text` is empty,
/// carries trailing characters, or does not fit T (so "-1" is no size_t
/// and "99999" no uint16_t).
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [parsed_end, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || parsed_end != end) return std::nullopt;
  return value;
}

/// One command-line argument, matched against flags in an if/else
/// chain. A matched numeric flag whose value does not parse marks the
/// argument bad; the caller then rejects it as a usage error.
class FlagArg {
 public:
  explicit FlagArg(std::string_view arg) : arg_(arg) {}

  /// True iff the argument is `key=…`; stores the value in *out.
  bool Str(std::string_view key, std::string* out) const {
    const std::optional<std::string_view> v = Value(key);
    if (v) *out = std::string(*v);
    return v.has_value();
  }

  /// True iff the argument is `key=…`; stores its number in *out, or
  /// marks the argument bad.
  template <typename T>
  bool Num(std::string_view key, T* out) {
    const std::optional<std::string_view> v = Value(key);
    if (!v) return false;
    const std::optional<T> n = ParseNumber<T>(*v);
    if (n) *out = *n;
    bad_ = bad_ || !n;
    return true;
  }

  bool bad() const { return bad_; }

 private:
  std::optional<std::string_view> Value(std::string_view key) const {
    if (arg_.size() <= key.size() || arg_.substr(0, key.size()) != key ||
        arg_[key.size()] != '=') {
      return std::nullopt;
    }
    return arg_.substr(key.size() + 1);
  }

  std::string_view arg_;
  bool bad_ = false;
};

}  // namespace geer

#endif  // GEER_UTIL_FLAGS_H_
