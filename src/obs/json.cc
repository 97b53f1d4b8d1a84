#include "obs/json.h"

#include <cinttypes>
#include <cstdio>

namespace sharoes::obs {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonObjectWriter::Key(std::string_view key) {
  if (need_comma_) out_.push_back(',');
  AppendJsonString(&out_, key);
  out_.push_back(':');
  need_comma_ = true;
}

void JsonObjectWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  AppendJsonString(&out_, value);
}

void JsonObjectWriter::Field(std::string_view key, uint64_t value) {
  Key(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out_ += buf;
}

void JsonObjectWriter::Field(std::string_view key, double value) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonObjectWriter::Field(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
}

void JsonObjectWriter::RawField(std::string_view key, std::string_view raw) {
  Key(key);
  out_ += raw;
}

void JsonObjectWriter::BeginObject(std::string_view key) {
  Key(key);
  out_.push_back('{');
  need_comma_ = false;
  ++depth_;
}

void JsonObjectWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
  --depth_;
}

std::string JsonObjectWriter::Take() {
  while (depth_ > 0) {
    out_.push_back('}');
    --depth_;
  }
  return std::move(out_);
}

}  // namespace sharoes::obs
