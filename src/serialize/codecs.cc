#include "serialize/codecs.h"

#include <cmath>
#include <string>

namespace egi::serialize {

void WriteWordCode(ByteWriter& w, const sax::WordCode& code) {
  w.PutU64(code.lo);
  w.PutU64(code.hi);
}

Status ReadWordCode(ByteReader& r, sax::WordCode* out) {
  sax::WordCode code;
  EGI_RETURN_IF_ERROR(r.ReadU64(&code.lo));
  EGI_RETURN_IF_ERROR(r.ReadU64(&code.hi));
  *out = code;
  return Status::OK();
}

void WriteTokenTable(ByteWriter& w, const sax::TokenTable& table) {
  w.PutVarint(static_cast<uint64_t>(table.codec().word_length()));
  w.PutVarint(static_cast<uint64_t>(table.codec().alphabet_size()));
  w.PutVarint(table.size());
  for (size_t id = 0; id < table.size(); ++id) {
    WriteWordCode(w, table.CodeAt(static_cast<int32_t>(id)));
  }
}

Status ReadTokenTable(ByteReader& r, sax::TokenTable* out) {
  uint64_t word_length = 0;
  uint64_t alphabet_size = 0;
  EGI_RETURN_IF_ERROR(r.ReadVarint(&word_length));
  EGI_RETURN_IF_ERROR(r.ReadVarint(&alphabet_size));
  if (word_length > static_cast<uint64_t>(sax::kWordCodeBits) ||
      alphabet_size > static_cast<uint64_t>(sax::kMaxAlphabetSize) ||
      !sax::WordCodec::Supported(static_cast<int>(word_length),
                                 static_cast<int>(alphabet_size))) {
    return Status::InvalidArgument(
        "token table codec (w=" + std::to_string(word_length) +
        ", a=" + std::to_string(alphabet_size) + ") is not a supported layout");
  }
  const sax::WordCodec codec(static_cast<int>(word_length),
                             static_cast<int>(alphabet_size));
  size_t count = 0;
  EGI_RETURN_IF_ERROR(r.ReadLength(&count, 16));  // 16 bytes per WordCode

  // Bits above the packed width must be zero (AppendSymbol can never set
  // them), and every symbol must lie inside the alphabet — both would make
  // the table disagree with codes the encoder can actually produce.
  const int total_bits = codec.word_length() * codec.bits_per_symbol();
  sax::WordCode high_mask;  // set bits = the illegal region
  if (total_bits < 64) {
    high_mask.lo = ~((uint64_t{1} << total_bits) - 1);
    high_mask.hi = ~uint64_t{0};
  } else if (total_bits < 128) {
    high_mask.lo = 0;
    high_mask.hi = ~uint64_t{0} << (total_bits - 64);
  }

  sax::TokenTable table(codec, count);
  for (size_t i = 0; i < count; ++i) {
    sax::WordCode code;
    EGI_RETURN_IF_ERROR(ReadWordCode(r, &code));
    if ((code.lo & high_mask.lo) != 0 || (code.hi & high_mask.hi) != 0) {
      return Status::InvalidArgument(
          "token code has bits outside its (w, a) layout");
    }
    for (int s = 0; s < codec.word_length(); ++s) {
      if (codec.SymbolAt(code, s) >= codec.alphabet_size()) {
        return Status::InvalidArgument("token symbol outside the alphabet");
      }
    }
    if (table.Intern(code) != static_cast<int32_t>(i)) {
      return Status::InvalidArgument("duplicate code in token table");
    }
  }
  *out = std::move(table);
  return Status::OK();
}

void WriteRollingStats(ByteWriter& w, const stream::RollingStats& stats) {
  const stream::RollingStats::State s = stats.SaveState();
  w.PutVarint(s.count);
  w.PutDouble(s.sum);
  w.PutDouble(s.sum_comp);
  w.PutDouble(s.sumsq);
  w.PutDouble(s.sumsq_comp);
}

Status ReadRollingStats(ByteReader& r, stream::RollingStats* out) {
  stream::RollingStats::State s;
  EGI_RETURN_IF_ERROR(r.ReadVarint(&s.count));
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&s.sum));
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&s.sum_comp));
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&s.sumsq));
  EGI_RETURN_IF_ERROR(r.ReadFiniteDouble(&s.sumsq_comp));
  out->RestoreState(s);
  return Status::OK();
}

void WriteStatus(ByteWriter& w, const Status& status) {
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
}

Status ReadStatus(ByteReader& r, Status* out) {
  uint8_t code = 0;
  EGI_RETURN_IF_ERROR(r.ReadU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  std::string message;
  EGI_RETURN_IF_ERROR(r.ReadString(&message, /*max_length=*/4096));
  if (code == 0 && !message.empty()) {
    return Status::InvalidArgument("OK status with a message");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void WriteDoubles(ByteWriter& w, std::span<const double> values) {
  w.PutVarint(values.size());
  for (const double v : values) w.PutDouble(v);
}

Status ReadDoubles(ByteReader& r, std::vector<double>* out, bool allow_nan) {
  size_t count = 0;
  EGI_RETURN_IF_ERROR(r.ReadLength(&count, 8));
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double v = 0.0;
    EGI_RETURN_IF_ERROR(r.ReadDouble(&v));
    if (std::isinf(v) || (!allow_nan && std::isnan(v))) {
      return Status::InvalidArgument("non-finite value in double array");
    }
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace egi::serialize
