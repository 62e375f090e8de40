#include "src/support/json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

namespace confllvm {

// ---- Json construction ----

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.b_ = b;
  return j;
}

Json Json::UInt(uint64_t v) {
  Json j;
  j.kind_ = Kind::kUInt;
  j.u_ = v;
  return j;
}

Json Json::Int(int64_t v) {
  if (v >= 0) {
    return UInt(static_cast<uint64_t>(v));
  }
  Json j;
  j.kind_ = Kind::kInt;
  j.i_ = v;
  return j;
}

Json Json::Double(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.d_ = v;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.s_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

// ---- Json accessors ----

bool Json::AsBool(bool def) const {
  return kind_ == Kind::kBool ? b_ : def;
}

uint64_t Json::AsUInt(uint64_t def) const {
  switch (kind_) {
    case Kind::kUInt: return u_;
    case Kind::kInt: return def;  // negative: no useful unsigned view
    case Kind::kDouble: return d_ >= 0 ? static_cast<uint64_t>(d_) : def;
    default: return def;
  }
}

int64_t Json::AsInt(int64_t def) const {
  switch (kind_) {
    case Kind::kUInt:
      return u_ <= 0x7fffffffffffffffull ? static_cast<int64_t>(u_) : def;
    case Kind::kInt: return i_;
    case Kind::kDouble: return static_cast<int64_t>(d_);
    default: return def;
  }
}

double Json::AsDouble(double def) const {
  switch (kind_) {
    case Kind::kUInt: return static_cast<double>(u_);
    case Kind::kInt: return static_cast<double>(i_);
    case Kind::kDouble: return d_;
    default: return def;
  }
}

const std::string& Json::AsString() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? s_ : kEmpty;
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& kv : obj_) {
    if (kv.first == key) {
      return &kv.second;
    }
  }
  return nullptr;
}

void Json::Set(const std::string& key, Json v) {
  if (kind_ != Kind::kObject) {
    kind_ = Kind::kObject;
  }
  for (auto& kv : obj_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

std::string Json::GetString(const std::string& key, const std::string& def) const {
  const Json* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : def;
}

uint64_t Json::GetUInt(const std::string& key, uint64_t def) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsUInt(def) : def;
}

bool Json::GetBool(const std::string& key, bool def) const {
  const Json* v = Find(key);
  return v != nullptr ? v->AsBool(def) : def;
}

// ---- Dump ----

namespace {

// Appends `s` as a quoted JSON string: quotes, backslashes and control
// characters are escaped, everything else is copied byte for byte.
void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          snprintf(buf, sizeof buf, "\\u%04x", u);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  char buf[40];
  switch (j.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      break;
    case Json::Kind::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Kind::kUInt:
      snprintf(buf, sizeof buf, "%llu",
               static_cast<unsigned long long>(j.AsUInt()));
      *out += buf;
      break;
    case Json::Kind::kInt:
      snprintf(buf, sizeof buf, "%lld", static_cast<long long>(j.AsInt()));
      *out += buf;
      break;
    case Json::Kind::kDouble:
      // %.17g round-trips any double; trim nothing — determinism over looks.
      // An integral value gets a ".0" so it parses back as a double.
      snprintf(buf, sizeof buf, "%.17g", j.AsDouble());
      *out += buf;
      if (strspn(buf, "-0123456789") == strlen(buf)) {
        *out += ".0";
      }
      break;
    case Json::Kind::kString:
      AppendEscaped(j.AsString(), out);
      break;
    case Json::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : j.items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(v, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& kv : j.members()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(kv.first, out);
        out->push_back(':');
        DumpTo(kv.second, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

// ---- Parser ----

class Json::Parser {
 public:
  Parser(const std::string& text, std::string* err) : t_(text), err_(err) {}

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWs();
    if (pos_ >= t_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = t_[pos_];
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Json::Str(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true")) return false;
        *out = Json::Bool(true);
        return true;
      case 'f':
        if (!Literal("false")) return false;
        *out = Json::Bool(false);
        return true;
      case 'n':
        if (!Literal("null")) return false;
        *out = Json::Null();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= t_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* msg) {
    if (err_ != nullptr && err_->empty()) {
      char buf[96];
      snprintf(buf, sizeof buf, "%s at offset %zu", msg, pos_);
      *err_ = buf;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < t_.size()) {
      const char c = t_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = strlen(lit);
    if (t_.compare(pos_, n, lit) != 0) {
      return Fail("bad literal");
    }
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= t_.size()) return Fail("unterminated string");
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= t_.size()) return Fail("unterminated escape");
      const char e = t_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > t_.size()) return Fail("bad \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = t_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // Encode as UTF-8. Surrogate pairs are not combined — the writer
          // only ever emits \u00XX for control bytes, so this suffices for
          // round-tripping our own traffic and stays safe on foreign input.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    bool neg = false;
    if (pos_ < t_.size() && t_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    bool is_int = true;
    while (pos_ < t_.size()) {
      const char c = t_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (neg && pos_ == start + 1)) {
      return Fail("bad number");
    }
    const std::string tok = t_.substr(start, pos_ - start);
    if (is_int) {
      errno = 0;
      if (neg) {
        const long long v = strtoll(tok.c_str(), nullptr, 10);
        if (errno == ERANGE) return Fail("integer out of range");
        *out = Json::Int(v);
      } else {
        const unsigned long long v = strtoull(tok.c_str(), nullptr, 10);
        if (errno == ERANGE) return Fail("integer out of range");
        *out = Json::UInt(v);
      }
    } else {
      *out = Json::Double(strtod(tok.c_str(), nullptr));
    }
    return true;
  }

  bool ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWs();
    if (pos_ < t_.size() && t_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!ParseValue(&v, depth + 1)) return false;
      out->Append(std::move(v));
      SkipWs();
      if (pos_ >= t_.size()) return Fail("unterminated array");
      const char c = t_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWs();
    if (pos_ < t_.size() && t_[pos_] == '}') {
      ++pos_;
      return true;
    }
    // A repeated key keeps its first position and takes the last value, as
    // with Set. The keys are indexed locally, so an untrusted frame parses in
    // time linear in its member count.
    std::vector<std::pair<std::string, Json>>& members = out->obj_;
    std::unordered_map<std::string, size_t> index;
    while (true) {
      SkipWs();
      if (pos_ >= t_.size() || t_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= t_.size() || t_[pos_++] != ':') return Fail("expected ':'");
      Json v;
      if (!ParseValue(&v, depth + 1)) return false;
      const auto [it, fresh] = index.emplace(key, members.size());
      if (fresh) {
        members.emplace_back(std::move(key), std::move(v));
      } else {
        members[it->second].second = std::move(v);
      }
      SkipWs();
      if (pos_ >= t_.size()) return Fail("unterminated object");
      const char c = t_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected ',' or '}'");
    }
  }

  const std::string& t_;
  std::string* err_;
  size_t pos_ = 0;
};

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

bool Json::Parse(const std::string& text, Json* out, std::string* err) {
  if (err != nullptr) {
    err->clear();
  }
  Parser p(text, err);
  if (!p.ParseValue(out, 0)) {
    return false;
  }
  if (!p.AtEnd()) {
    if (err != nullptr && err->empty()) {
      *err = "trailing characters after value";
    }
    return false;
  }
  return true;
}

}  // namespace confllvm
