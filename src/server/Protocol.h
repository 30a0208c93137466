//===- server/Protocol.h - JSONL wire protocol for monsem serve --*- C++ -*-===//
///
/// \file
/// The `monsem serve` wire protocol: one JSON object per line in both
/// directions (JSONL). Requests carry an `"op"` discriminator, responses an
/// `"event"` one, so a client can demultiplex a shared stream with a single
/// string compare.
///
/// Requests:
///
///   {"op":"submit","id":"r1","program":"fac 6","monitors":["profile"],
///    "names":["fac"],"backend":"cek","strategy":"strict","prelude":true,
///    "limits":{"max_steps":100000,"deadline_ms":50,"max_bytes":0,
///              "max_depth":0},"durable":false,"tenant":"alice"}
///   {"op":"cancel","id":"r1"}
///   {"op":"status"}
///   {"op":"shutdown"}
///
/// Responses (all carry the run id where one applies):
///
///   {"event":"accepted","id":"r1"}
///   {"event":"probes","id":"r1","events":[{"step":12,"text":"pre fac"}]}
///   {"event":"checkpoint","id":"r1","steps":65536}
///   {"event":"recovered","id":"r1","steps":65536}
///   {"event":"outcome","id":"r1","outcome":"ok","exit_code":0,
///    "value":"720","steps":178,"monitors":[{"name":"profile",
///    "state":"[fac -> 7]"}]}
///   {"event":"status","live":7,"done":17,"workers":4,...,
///    "resident_bytes":81920,"evictions":3,
///    "tenants":[{"tenant":"alice","queued":2,"active":1,"user_steps":9000,
///                "evicted":1}]}
///   {"event":"overloaded","id":"r1","tenant":"alice","queued":64,
///    "retry_after_ms":1700}
///   {"event":"error","id":"r1","message":"unknown op"}
///   {"event":"listening","transport":"tcp","port":43117}
///   {"event":"shutdown","done":17}
///
/// The `outcome`/`exit_code` pair uses outcomeName()/exitCodeFor() from
/// support/Governor.h — the same table the CLI exits with, so scripting
/// against either surface sees identical codes.
///
/// The JSON support here is deliberately minimal (objects, arrays, strings
/// with full escape handling, 64-bit integers, booleans, null) — the
/// protocol needs nothing more and the toolchain bakes in no JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef MONSEM_SERVER_PROTOCOL_H
#define MONSEM_SERVER_PROTOCOL_H

#include "interp/Backend.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace monsem {
namespace json {

/// A parsed JSON value. Numbers are 64-bit integers: the protocol's only
/// numeric fields are step counts, limits and sizes; fractional or
/// out-of-range literals are a parse error.
struct Value {
  enum class Kind : uint8_t { Null, Bool, Int, Str, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  std::string S;
  std::vector<Value> Elems;
  std::map<std::string, Value> Fields;

  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Object field lookup; null when absent or not an object.
  const Value *field(std::string_view Name) const;

  // Typed accessors with defaults (missing/mistyped yields the default).
  std::string_view strOr(std::string_view Default = {}) const {
    return K == Kind::Str ? std::string_view(S) : Default;
  }
  int64_t intOr(int64_t Default = 0) const {
    return K == Kind::Int ? I : Default;
  }
  bool boolOr(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
};

/// Parses one JSON document from \p Text (trailing garbage is an error).
/// Returns false and sets \p Err on malformed input.
bool parse(std::string_view Text, Value &Out, std::string &Err);

/// Appends \p S to \p Out as a JSON string literal (quotes, escapes).
void appendQuoted(std::string &Out, std::string_view S);

/// Incremental writer for one JSON object/array line. Usage:
///
///   json::Writer W;
///   W.beginObject();
///   W.key("event"); W.str("accepted");
///   W.key("id");    W.str(Id);
///   W.endObject();
///   Out.writeLine(W.take());
class Writer {
public:
  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }
  void key(std::string_view K) {
    comma();
    appendQuoted(Buf, K);
    Buf.push_back(':');
    JustKeyed = true;
  }
  void str(std::string_view S) {
    comma();
    appendQuoted(Buf, S);
  }
  void num(int64_t N) {
    comma();
    Buf += std::to_string(N);
  }
  void num(uint64_t N) {
    comma();
    Buf += std::to_string(N);
  }
  void boolean(bool B) {
    comma();
    Buf += B ? "true" : "false";
  }
  std::string take() { return std::move(Buf); }

private:
  void open(char C) {
    comma();
    Buf.push_back(C);
    NeedComma = false;
  }
  void close(char C) {
    Buf.push_back(C);
    NeedComma = true;
    JustKeyed = false;
  }
  void comma() {
    if (NeedComma && !JustKeyed)
      Buf.push_back(',');
    NeedComma = true;
    JustKeyed = false;
  }

  std::string Buf;
  bool NeedComma = false;
  bool JustKeyed = false;
};

} // namespace json

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// A validated `"op":"submit"` request.
struct SubmitRequest {
  std::string Id;
  std::string Program;
  std::string Tenant;                ///< Fair-share queue ("" = connection).
  std::vector<std::string> Monitors; ///< Monitor kinds (serve's grant list).
  std::vector<std::string> Names;    ///< Functions to annotate (empty = all).
  monsem::Backend B = monsem::Backend::CEK; ///< Validated by parseBackend.
  std::string Strategy = "strict";   ///< strict | name | need.
  bool Prelude = false;
  uint64_t MaxSteps = 0;
  uint64_t DeadlineMs = 0;
  uint64_t MaxBytes = 0;
  uint64_t MaxDepth = 0;
  bool Durable = false;
};

/// One parsed request line.
struct Request {
  enum class Op : uint8_t { Submit, Cancel, Status, Shutdown } O = Op::Status;
  SubmitRequest Submit; ///< Valid when O == Submit.
  std::string CancelId; ///< Valid when O == Cancel.
};

/// True iff \p Id is a well-formed run id: [A-Za-z0-9_-]{1,64}. Keeps ids
/// safe to embed in journal-directory file names.
bool validRunId(std::string_view Id);

/// Parses and validates one request line. On failure returns false and
/// sets \p Err to a client-facing message (\p ErrId gets the request's id
/// when one was present, so the error response can name the run).
bool parseRequest(std::string_view Line, Request &Out, std::string &Err,
                  std::string &ErrId);

} // namespace monsem

#endif // MONSEM_SERVER_PROTOCOL_H
