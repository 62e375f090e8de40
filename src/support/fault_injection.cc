#include "src/support/fault_injection.h"

#include <algorithm>
#include <cstdlib>

#include "src/support/bytes.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace confllvm {

namespace {

// Splits on commas, trimming nothing: clause shapes are strict enough that
// stray whitespace should fail loudly, not silently arm the wrong site.
std::vector<std::string> SplitClauses(const std::string& spec) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) {
      out.push_back(spec.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

bool ParseProb(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && *out >= 0.0 && *out <= 1.0;
}

}  // namespace

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* const instance = new FaultInjector();
  return *instance;
}

bool FaultInjector::Configure(const std::string& spec, std::string* error) {
  uint64_t seed = 1;
  std::vector<Rule> rules;
  for (const std::string& clause : SplitClauses(spec)) {
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
      if (error != nullptr) {
        *error = "clause '" + clause + "' is not <site>=<trigger>";
      }
      return false;
    }
    std::string lhs = clause.substr(0, eq);
    const std::string rhs = clause.substr(eq + 1);
    if (lhs == "seed") {
      if (!ParseU64(rhs, &seed)) {
        if (error != nullptr) {
          *error = "bad seed '" + rhs + "'";
        }
        return false;
      }
      continue;
    }
    Rule r;
    if (!lhs.empty() && lhs.back() == '*') {
      r.glob = true;
      lhs.pop_back();
    }
    r.pattern = lhs;
    if (rhs[0] == 'p') {
      if (!ParseProb(rhs.substr(1), &r.probability)) {
        if (error != nullptr) {
          *error = "bad probability '" + rhs + "' for site '" + lhs +
                   "' (want p<float in [0,1]>)";
        }
        return false;
      }
    } else if (rhs[0] == 'n') {
      if (!ParseU64(rhs.substr(1), &r.nth) || r.nth == 0) {
        if (error != nullptr) {
          *error = "bad hit count '" + rhs + "' for site '" + lhs +
                   "' (want n<count >= 1>)";
        }
        return false;
      }
      r.nth_mode = true;
    } else {
      if (error != nullptr) {
        *error = "trigger '" + rhs + "' for site '" + lhs +
                 "' must start with 'p' or 'n'";
      }
      return false;
    }
    rules.push_back(std::move(r));
  }

  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rules_ = std::move(rules);
  sites_.clear();
  enabled_.store(!rules_.empty(), std::memory_order_relaxed);
  return true;
}

bool FaultInjector::ConfigureFromEnv(std::string* error) {
  const char* spec = std::getenv("CONFCC_INJECT_FAULTS");
  if (spec == nullptr || spec[0] == '\0') {
    return true;
  }
  return Configure(spec, error);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = 1;
  rules_.clear();
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

FaultInjector::SiteState& FaultInjector::StateFor(const std::string& site) {
  for (SiteState& s : sites_) {
    if (s.site == site) {
      return s;
    }
  }
  SiteState s;
  s.site = site;
  for (const Rule& r : rules_) {
    const bool match = r.glob ? site.compare(0, r.pattern.size(), r.pattern) == 0
                              : site == r.pattern;
    if (match) {
      s.rule = &r;
      break;  // first matching clause wins
    }
  }
  // Per-site stream: the seed is XORed with the site-name hash so every
  // site's draw sequence depends only on (seed, site, own hit ordinal) —
  // cross-site interleaving cannot perturb it.
  Rng rng(seed_ ^ Fnv1a64(reinterpret_cast<const uint8_t*>(site.data()),
                          site.size()));
  s.rng[0] = rng.Next();
  s.rng[1] = rng.Next();
  s.rng[2] = rng.Next();
  s.rng[3] = rng.Next();
  sites_.push_back(std::move(s));
  return sites_.back();
}

bool FaultInjector::ShouldFail(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    return false;
  }
  SiteState& s = StateFor(site);
  ++s.hits;
  if (s.rule == nullptr) {
    return false;
  }
  bool fire;
  if (s.rule->nth_mode) {
    fire = s.hits == s.rule->nth;
  } else {
    // xoshiro256** step over the persisted per-site state (Rng itself keeps
    // its state private; this mirrors its Next()/Chance()).
    const auto rotl = [](uint64_t x, int k) {
      return (x << k) | (x >> (64 - k));
    };
    const uint64_t result = rotl(s.rng[1] * 5, 7) * 9;
    const uint64_t t = s.rng[1] << 17;
    s.rng[2] ^= s.rng[0];
    s.rng[3] ^= s.rng[1];
    s.rng[1] ^= s.rng[2];
    s.rng[0] ^= s.rng[3];
    s.rng[2] ^= t;
    s.rng[3] = rotl(s.rng[3], 45);
    fire = static_cast<double>(result >> 11) * (1.0 / 9007199254740992.0) <
           s.rule->probability;
  }
  if (fire) {
    ++s.fired;
  }
  return fire;
}

std::vector<FaultInjector::SiteCount> FaultInjector::Report() const {
  std::vector<SiteCount> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SiteState& s : sites_) {
      out.push_back({s.site, s.hits, s.fired});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SiteCount& a, const SiteCount& b) { return a.site < b.site; });
  return out;
}

Json FaultInjector::ReportJson() const {
  uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seed = seed_;
  }
  Json sites = Json::Array();
  for (const SiteCount& sc : Report()) {
    Json site = Json::Object();
    site.Set("site", Json::Str(sc.site));
    site.Set("hits", Json::UInt(sc.hits));
    site.Set("fired", Json::UInt(sc.fired));
    sites.Append(std::move(site));
  }
  Json j = Json::Object();
  j.Set("seed", Json::UInt(seed));
  j.Set("sites", std::move(sites));
  return j;
}

}  // namespace confllvm
