#include "locks/registry.hpp"

#include <algorithm>
#include <cstdlib>

namespace cohort::reg {

namespace {

std::uint32_t env_u32(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0') return 0;
  return static_cast<std::uint32_t>(v);
}

}  // namespace

fastpath_policy effective_fastpath(const lock_params& lp) {
  fastpath_policy fp;  // compiled defaults
  if (const std::uint32_t v = env_u32("COHORT_FISSION_LIMIT"); v != 0)
    fp.fission_limit = v;
  if (const std::uint32_t v = env_u32("COHORT_REENGAGE_DRAINS"); v != 0)
    fp.reengage_drains = v;
  if (lp.fp.fission_limit != 0) fp.fission_limit = lp.fp.fission_limit;
  if (lp.fp.reengage_drains != 0) fp.reengage_drains = lp.fp.reengage_drains;
  return fp;
}

gcr_policy effective_gcr(const lock_params& lp) {
  gcr_policy gp;  // compiled defaults (max_active 0 = online CPUs)
  if (const std::uint32_t v = env_u32("COHORT_GCR_MIN_ACTIVE"); v != 0)
    gp.min_active = v;
  if (const std::uint32_t v = env_u32("COHORT_GCR_MAX_ACTIVE"); v != 0)
    gp.max_active = v;
  if (const std::uint32_t v = env_u32("COHORT_GCR_ROTATION"); v != 0)
    gp.rotation_interval = v;
  if (const std::uint32_t v = env_u32("COHORT_GCR_TUNE_WINDOW"); v != 0)
    gp.tune_window = v;
  if (lp.gcr.min_active != 0) gp.min_active = lp.gcr.min_active;
  if (lp.gcr.max_active != 0) gp.max_active = lp.gcr.max_active;
  if (lp.gcr.rotation_interval != 0)
    gp.rotation_interval = lp.gcr.rotation_interval;
  if (lp.gcr.tune_window != 0) gp.tune_window = lp.gcr.tune_window;
  return gp;
}

namespace detail {

resolved_params resolve(const lock_params& lp) {
  return {effective_clusters(lp), pass_policy{lp.cohort.pass_limit},
          effective_fastpath(lp), effective_gcr(lp)};
}

}  // namespace detail

const char* to_string(lock_family f) {
  switch (f) {
    case lock_family::plain:
      return "plain";
    case lock_family::queue:
      return "queue";
    case lock_family::cohort:
      return "cohort";
    case lock_family::compact:
      return "compact";
    case lock_family::fp_composite:
      return "fp-composite";
    case lock_family::gcr:
      return "gcr";
  }
  return "?";
}

namespace {

// The any_lock adapter over a concrete lock type.  Capability answers come
// from the shared detail:: traits so they match the descriptors exactly.
template <typename Lock>
class lock_adapter final : public any_lock {
 public:
  lock_adapter(std::string name, std::unique_ptr<Lock> lock)
      : name_(std::move(name)), lock_(std::move(lock)) {}

  const std::string& name() const override { return name_; }

  bool abortable() const override {
    return detail::lock_is_abortable<Lock>();
  }

  std::optional<erased_stats> stats() const override {
    if constexpr (detail::lock_reports_stats<Lock>()) {
      // abortable_stats slices down to its cohort_stats base.
      return erased_stats(lock_->stats());
    } else {
      return std::nullopt;
    }
  }

 protected:
  using ctx_t = typename Lock::context;

  void* create_context() override { return new ctx_t(); }
  void destroy_context(void* p) override { delete static_cast<ctx_t*>(p); }

  void do_lock(void* p) override { lock_->lock(*static_cast<ctx_t*>(p)); }
  release_kind do_unlock(void* p) override {
    return lock_->unlock(*static_cast<ctx_t*>(p));
  }

  bool do_try_lock(void* p, deadline d) override {
    ctx_t& c = *static_cast<ctx_t*>(p);
    if constexpr (requires(Lock& l, ctx_t& ctx, deadline dl) {
                    l.try_lock(ctx, dl);
                  }) {
      // Context-carrying timeout (A-CLH and the abortable cohort locks).
      // cohort_aclh-style locks report the acquisition state in an optional;
      // plain abortable locks report bool.
      auto r = lock_->try_lock(c, d);
      if constexpr (std::is_same_v<decltype(r), bool>)
        return r;
      else
        return r.has_value();
    } else if constexpr (requires(Lock& l, deadline dl) { l.try_lock(dl); }) {
      return lock_->try_lock(d);  // HBO: context-free timeout
    } else {
      lock_->lock(c);
      return true;
    }
  }

 private:
  std::string name_;
  std::unique_ptr<Lock> lock_;
};

// Builds one runtime descriptor from one compile-time registry row.
template <typename Maker>
lock_descriptor describe(const detail::entry<Maker>& e) {
  using lock_t = typename detail::entry<Maker>::lock_type;
  lock_descriptor d;
  d.name = e.name;
  d.family = e.family;
  d.caps.abortable = detail::lock_is_abortable<lock_t>();
  d.caps.fp_composable = e.fp_composable;
  d.caps.cluster_aware = e.cluster_aware;
  d.caps.reports_batch_stats = detail::lock_reports_stats<lock_t>();
  d.uses_pass_limit = e.uses_pass_limit;
  d.uses_fp_knobs = e.uses_fp_knobs;
  // Derived, not declared, so the flag cannot drift from the family.
  d.uses_gcr_knobs = e.family == lock_family::gcr;
  d.summary = e.summary;
  d.make = [name = d.name, maker = e.make](
               const lock_params& lp) -> std::unique_ptr<any_lock> {
    return std::make_unique<lock_adapter<lock_t>>(name,
                                                  maker(detail::resolve(lp)));
  };
  return d;
}

}  // namespace

const std::vector<lock_descriptor>& all_locks() {
  static const std::vector<lock_descriptor> descs = [] {
    std::vector<lock_descriptor> v;
    std::apply([&](const auto&... e) { (v.push_back(describe(e)), ...); },
               detail::entries());
    return v;
  }();
  return descs;
}

const lock_descriptor* find_lock(const std::string& name) {
  for (const auto& d : all_locks())
    if (d.name == name) return &d;
  return nullptr;
}

namespace {

char fold(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool iprefix(const std::string& pat, const std::string& s) {
  if (pat.size() > s.size()) return false;
  for (std::size_t i = 0; i < pat.size(); ++i)
    if (fold(pat[i]) != fold(s[i])) return false;
  return true;
}

// Case-insensitive Levenshtein distance, two-row rolling table.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub =
          prev[j - 1] + (fold(a[i - 1]) == fold(b[j - 1]) ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> suggest_lock_names(const std::string& name,
                                            std::size_t max_out) {
  // Typo tolerance scales with what was typed: a third of the name, never
  // under 2, so "C-BO-MSC" finds C-BO-MCS and "tata" finds TATAS without
  // short garbage matching everything.
  const std::size_t cutoff = std::max<std::size_t>(2, name.size() / 3);
  struct scored {
    bool prefix;
    std::size_t dist;
    const std::string* n;
  };
  std::vector<scored> cand;
  for (const auto& d : all_locks()) {
    const bool pre = !name.empty() && iprefix(name, d.name);
    const std::size_t dist = edit_distance(name, d.name);
    if (pre || dist <= cutoff) cand.push_back({pre, dist, &d.name});
  }
  std::stable_sort(cand.begin(), cand.end(),
                   [](const scored& a, const scored& b) {
                     if (a.prefix != b.prefix) return a.prefix;
                     return a.dist < b.dist;
                   });
  std::vector<std::string> out;
  for (const scored& s : cand) {
    if (out.size() >= max_out) break;
    out.push_back(*s.n);
  }
  return out;
}

std::string unknown_lock_message(const std::string& name) {
  std::string msg = "unknown lock '" + name + "'";
  const std::vector<std::string> sug = suggest_lock_names(name);
  if (!sug.empty()) {
    msg += "; did you mean ";
    for (std::size_t i = 0; i < sug.size(); ++i) {
      if (i != 0) msg += i + 1 == sug.size() ? " or " : ", ";
      msg += "'" + sug[i] + "'";
    }
    msg += "?";
  }
  msg += " (--list-locks prints the registry)";
  return msg;
}

const std::vector<std::string>& all_lock_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& d : all_locks()) v.push_back(d.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& cohort_lock_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& d : all_locks())
      if (d.caps.reports_batch_stats) v.push_back(d.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& abortable_lock_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& d : all_locks())
      if (d.caps.abortable) v.push_back(d.name);
    return v;
  }();
  return names;
}

const std::vector<std::string>& table_lock_names() {
  static const std::vector<std::string> names = {
      "pthread",   "Fib-BO",    "MCS",      "HBO",       "HBO-tuned",
      "FC-MCS",    "C-BO-BO",   "C-TKT-TKT", "C-BO-MCS", "C-TKT-MCS",
      "C-MCS-MCS"};
  return names;
}

bool is_lock_name(const std::string& name) {
  return find_lock(name) != nullptr;
}

std::unique_ptr<any_lock> make_lock(const std::string& name,
                                    const lock_params& lp) {
  const lock_descriptor* d = find_lock(name);
  return d != nullptr ? d->make(lp) : nullptr;
}

}  // namespace cohort::reg
