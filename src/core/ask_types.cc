#include "core/ask_types.h"

#include <charconv>

namespace cqads::core {

namespace {

/// Appends `v` as printf's "%.17g" (what an ostream at precision 17 in the
/// default float field writes), so every double round-trips.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out->append(buf, res.ptr);
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

std::string CanonicalAskResultString(const AskResult& result) {
  std::string out;
  std::size_t size = 96 + result.domain.size() + result.sql.size() +
                     result.interpretation.size();
  for (const Answer& a : result.answers) size += 64 + a.measure.size();
  out.reserve(size);
  out += "domain=";
  out += result.domain;
  out += "\nsql=";
  out += result.sql;
  out += "\ninterpretation=";
  out += result.interpretation;
  out += result.contradiction ? "\ncontradiction=1" : "\ncontradiction=0";
  out += "\nexact_count=";
  AppendInt(&out, result.exact_count);
  out += '\n';
  for (const Answer& a : result.answers) {
    out += "row=";
    AppendInt(&out, a.row);
    out += a.exact ? " exact=1 rank_sim=" : " exact=0 rank_sim=";
    AppendDouble(&out, a.rank_sim);
    out += " measure=";
    out += a.measure;
    out += '\n';
  }
  return out;
}

}  // namespace cqads::core
