// banger/serve/protocol.hpp
//
// Wire protocol for `banger serve`: newline-delimited JSON, one request
// object per line, one response object per line, in request order.
//
// Request:  {"id": <any>, "op": "schedule", "design": "...", ...}
// Success:  {"id": <echo>, "op": "schedule", "ok": true, "exit": 0,
//            "output": "..."}
// Failure:  {"id": <echo>, "op": "schedule", "ok": false, "exit": 2,
//            "error": {"code": "usage", "message": "...",
//                      "line": 3, "column": 7}}   (position when known)
//
// Field order is fixed so responses are byte-stable and diffable against
// committed golden corpora. Unknown request fields are rejected with a
// usage error rather than ignored — a typo'd option must not silently
// change meaning.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "util/error.hpp"

namespace banger::serve {

struct Request {
  Json id;          ///< echoed verbatim in the response (defaults to null)
  std::string op;   ///< ping|upload|schedule|trial|stream|check|trace|stats|shutdown
  std::string design;       ///< inline `.pitl` text
  std::string design_ref;   ///< or: name of an uploaded design
  std::string machine;      ///< inline `.machine` text
  std::string machine_ref;  ///< or: name of an uploaded machine
  std::string scheduler = "mh";
  std::string format;           ///< op-specific default; validated per op
  std::string fail_on = "error";
  std::string file;             ///< file label stamped into check diagnostics
  std::string name;             ///< upload: session name
  std::string kind;             ///< upload: design|machine
  std::string text;             ///< upload: payload text
  std::map<std::string, std::string> inputs;  ///< trial: store -> PITS expr
  /// trial batch envelope: one store -> expr object per trial, executed
  /// in order by a single request (one cache entry, one admission slot).
  /// Mutually exclusive with `inputs`.
  std::vector<std::map<std::string, std::string>> inputs_batch;
  bool has_inputs_batch = false;  ///< `inputs_batch` key present (may be [])
  /// stream envelope: one store -> expr object per batch, streamed in
  /// order through the pipeline executor by a single request. Mutually
  /// exclusive with `inputs` and `inputs_batch`.
  std::vector<std::map<std::string, std::string>> inputs_stream;
  bool has_inputs_stream = false;  ///< `inputs_stream` key present (may be [])
  bool contention = false;      ///< trace: per-link queueing
};

/// Parses and validates one request object. Throws Error{Usage} on
/// unknown fields / wrong types, Error{Parse} never (caller parses).
Request parse_request(const Json& doc);

/// Success envelope; op-specific members are appended by the caller.
Json ok_envelope(const Json& id, const std::string& op, int exit_code);

/// Failure envelope from a banger::Error (position included when known).
Json error_response(const Json& id, const std::string& op, const Error& e);

/// Failure envelope with an explicit code string ("limit" for admission
/// control, "error" for unclassified failures).
Json error_response(const Json& id, const std::string& op,
                    const std::string& code, const std::string& message,
                    int exit_code);

}  // namespace banger::serve
