//===- server/Protocol.cpp - JSONL parsing and validation ------------------===//

#include "server/Protocol.h"

#include <cctype>
#include <cstdlib>

using namespace monsem;
using json::Value;

//===----------------------------------------------------------------------===//
// JSON parsing
//===----------------------------------------------------------------------===//

const Value *Value::field(std::string_view Name) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Fields.find(std::string(Name));
  return It == Fields.end() ? nullptr : &It->second;
}

namespace {

/// Recursive-descent parser over a single line. Depth-capped so a
/// pathological request cannot exhaust the C stack.
class Parser {
public:
  Parser(std::string_view Text) : Text(Text) {}

  bool run(Value &Out, std::string &Err) {
    skipWs();
    if (!parseValue(Out, 0)) {
      Err = Error.empty() ? "malformed JSON" : Error;
      return false;
    }
    skipWs();
    if (Pos != Text.size()) {
      Err = "trailing characters after JSON document";
      return false;
    }
    return true;
  }

private:
  static constexpr unsigned kMaxDepth = 64;

  bool fail(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool lit(std::string_view L) {
    if (Text.substr(Pos, L.size()) != L)
      return false;
    Pos += L.size();
    return true;
  }

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > kMaxDepth)
      return fail("JSON nested too deeply");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::Str;
      return parseString(Out.S);
    case 't':
      Out.K = Value::Kind::Bool;
      Out.B = true;
      return lit("true") || fail("bad literal");
    case 'f':
      Out.K = Value::Kind::Bool;
      Out.B = false;
      return lit("false") || fail("bad literal");
    case 'n':
      Out.K = Value::Kind::Null;
      return lit("null") || fail("bad literal");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(Value &Out, unsigned Depth) {
    Out.K = Value::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (eat('}'))
      return true;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!eat(':'))
        return fail("expected ':' after object key");
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Fields[std::move(Key)] = std::move(V);
      skipWs();
      if (eat(','))
        continue;
      if (eat('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(Value &Out, unsigned Depth) {
    Out.K = Value::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (eat(']'))
      return true;
    for (;;) {
      skipWs();
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Elems.push_back(std::move(V));
      skipWs();
      if (eat(','))
        continue;
      if (eat(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool hex4(uint32_t &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      if (Pos >= Text.size())
        return fail("truncated \\u escape");
      char C = Text[Pos++];
      uint32_t D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else if (C >= 'A' && C <= 'F')
        D = C - 'A' + 10;
      else
        return fail("bad \\u escape");
      Out = Out << 4 | D;
    }
    return true;
  }

  void appendUtf8(std::string &S, uint32_t CP) {
    if (CP < 0x80) {
      S.push_back(static_cast<char>(CP));
    } else if (CP < 0x800) {
      S.push_back(static_cast<char>(0xC0 | (CP >> 6)));
      S.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
    } else if (CP < 0x10000) {
      S.push_back(static_cast<char>(0xE0 | (CP >> 12)));
      S.push_back(static_cast<char>(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
    } else {
      S.push_back(static_cast<char>(0xF0 | (CP >> 18)));
      S.push_back(static_cast<char>(0x80 | ((CP >> 12) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    for (;;) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        uint32_t CP;
        if (!hex4(CP))
          return false;
        if (CP >= 0xD800 && CP <= 0xDBFF) {
          // Surrogate pair.
          if (!lit("\\u"))
            return fail("unpaired surrogate");
          uint32_t Lo;
          if (!hex4(Lo))
            return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF)
            return fail("bad low surrogate");
          CP = 0x10000 + ((CP - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (CP >= 0xDC00 && CP <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, CP);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (eat('-'))
      ;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start || (Text[Start] == '-' && Pos == Start + 1))
      return fail("malformed number");
    if (Pos < Text.size() &&
        (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E'))
      return fail("fractional numbers are not part of the protocol");
    errno = 0;
    std::string Tok(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    long long V = std::strtoll(Tok.c_str(), &End, 10);
    if (errno == ERANGE || End != Tok.c_str() + Tok.size())
      return fail("integer out of range");
    Out.K = Value::Kind::Int;
    Out.I = V;
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
  std::string Error;
};

} // namespace

bool json::parse(std::string_view Text, Value &Out, std::string &Err) {
  return Parser(Text).run(Out, Err);
}

void json::appendQuoted(std::string &Out, std::string_view S) {
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char *Hex = "0123456789abcdef";
        Out += "\\u00";
        Out.push_back(Hex[(C >> 4) & 0xF]);
        Out.push_back(Hex[C & 0xF]);
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
}

//===----------------------------------------------------------------------===//
// Request validation
//===----------------------------------------------------------------------===//

bool monsem::validRunId(std::string_view Id) {
  if (Id.empty() || Id.size() > 64)
    return false;
  for (char C : Id)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' && C != '-')
      return false;
  return true;
}

namespace {

uint64_t limitField(const Value &Limits, std::string_view Name) {
  const Value *F = Limits.field(Name);
  int64_t V = F ? F->intOr() : 0;
  return V > 0 ? static_cast<uint64_t>(V) : 0;
}

bool stringList(const Value *F, std::vector<std::string> &Out,
                std::string_view What, std::string &Err) {
  if (!F)
    return true;
  if (!F->isArray()) {
    Err = std::string(What) + " must be an array of strings";
    return false;
  }
  for (const Value &E : F->Elems) {
    if (E.K != Value::Kind::Str) {
      Err = std::string(What) + " must be an array of strings";
      return false;
    }
    Out.push_back(E.S);
  }
  return true;
}

} // namespace

bool monsem::parseRequest(std::string_view Line, Request &Out,
                          std::string &Err, std::string &ErrId) {
  Value V;
  if (!json::parse(Line, V, Err))
    return false;
  if (!V.isObject()) {
    Err = "request must be a JSON object";
    return false;
  }
  if (const Value *Id = V.field("id"))
    ErrId = Id->S; // Best-effort: lets the error response name the run.
  const Value *OpF = V.field("op");
  if (!OpF || OpF->K != Value::Kind::Str) {
    Err = "missing \"op\"";
    return false;
  }
  std::string_view Op = OpF->S;

  if (Op == "status") {
    Out.O = Request::Op::Status;
    return true;
  }
  if (Op == "shutdown") {
    Out.O = Request::Op::Shutdown;
    return true;
  }
  if (Op == "cancel") {
    const Value *Id = V.field("id");
    if (!Id || !validRunId(Id->strOr())) {
      Err = "cancel needs a valid \"id\" ([A-Za-z0-9_-]{1,64})";
      return false;
    }
    Out.O = Request::Op::Cancel;
    Out.CancelId = Id->S;
    return true;
  }
  if (Op != "submit") {
    Err = "unknown op \"" + std::string(Op) +
          "\" (expected submit, cancel, status or shutdown)";
    return false;
  }

  Out.O = Request::Op::Submit;
  SubmitRequest &S = Out.Submit;
  const Value *Id = V.field("id");
  if (!Id || !validRunId(Id->strOr())) {
    Err = "submit needs a valid \"id\" ([A-Za-z0-9_-]{1,64})";
    return false;
  }
  S.Id = Id->S;
  const Value *Prog = V.field("program");
  if (!Prog || Prog->K != Value::Kind::Str || Prog->S.empty()) {
    Err = "submit needs a non-empty \"program\" string";
    return false;
  }
  S.Program = Prog->S;
  if (!stringList(V.field("monitors"), S.Monitors, "\"monitors\"", Err) ||
      !stringList(V.field("names"), S.Names, "\"names\"", Err))
    return false;
  if (const Value *T = V.field("tenant")) {
    if (!validRunId(T->strOr())) {
      Err = "\"tenant\" must match [A-Za-z0-9_-]{1,64}";
      return false;
    }
    S.Tenant = T->S;
  }
  if (const Value *B = V.field("backend")) {
    std::string Name(B->strOr("cek"));
    std::optional<monsem::Backend> Parsed = parseBackend(Name);
    if (!Parsed) {
      Err = "unknown backend \"" + Name + "\" (valid: " + backendNames() +
            ")";
      return false;
    }
    S.B = *Parsed;
  }
  if (const Value *St = V.field("strategy")) {
    S.Strategy = St->strOr("strict");
    if (S.Strategy != "strict" && S.Strategy != "name" &&
        S.Strategy != "need") {
      Err = "unknown strategy \"" + S.Strategy +
            "\" (valid: strict, name, need)";
      return false;
    }
  }
  if (const Value *P = V.field("prelude"))
    S.Prelude = P->boolOr();
  if (const Value *D = V.field("durable"))
    S.Durable = D->boolOr();
  if (const Value *L = V.field("limits")) {
    if (!L->isObject()) {
      Err = "\"limits\" must be an object";
      return false;
    }
    S.MaxSteps = limitField(*L, "max_steps");
    S.DeadlineMs = limitField(*L, "deadline_ms");
    S.MaxBytes = limitField(*L, "max_bytes");
    S.MaxDepth = limitField(*L, "max_depth");
  }
  return true;
}
