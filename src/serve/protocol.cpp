#include "serve/protocol.hpp"

#include "obs/trace.hpp"

namespace banger::serve {

namespace {

[[noreturn]] void usage(const std::string& message) {
  fail(ErrorCode::Usage, message);
}

std::string expect_string(const std::string& key, const Json& v) {
  if (!v.is_string()) {
    usage("request field `" + key + "` expects a string");
  }
  return v.as_string();
}

bool expect_bool(const std::string& key, const Json& v) {
  if (v.kind() != Json::Kind::Bool) {
    usage("request field `" + key + "` expects true or false");
  }
  return v.as_bool();
}

/// One VAR -> EXPR binding object (the `inputs` shape, also each
/// element of `inputs_batch`).
std::map<std::string, std::string> parse_inputs_object(const Json& value) {
  std::map<std::string, std::string> out;
  for (const auto& [var, expr] : value.as_object()) {
    if (expr.is_string()) {
      out[var] = expr.as_string();
    } else if (expr.kind() == Json::Kind::Number) {
      out[var] = obs::json_number(expr.as_number());
    } else {
      usage("input `" + var + "` expects a string expression or number");
    }
  }
  return out;
}

}  // namespace

Request parse_request(const Json& doc) {
  if (!doc.is_object()) {
    usage("request must be a JSON object");
  }
  Request req;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "id") {
      req.id = value;
    } else if (key == "op") {
      req.op = expect_string(key, value);
    } else if (key == "design") {
      req.design = expect_string(key, value);
    } else if (key == "design_ref") {
      req.design_ref = expect_string(key, value);
    } else if (key == "machine") {
      req.machine = expect_string(key, value);
    } else if (key == "machine_ref") {
      req.machine_ref = expect_string(key, value);
    } else if (key == "scheduler") {
      req.scheduler = expect_string(key, value);
    } else if (key == "format") {
      req.format = expect_string(key, value);
    } else if (key == "fail_on") {
      req.fail_on = expect_string(key, value);
      if (req.fail_on != "warning" && req.fail_on != "error") {
        usage("request field `fail_on` expects `warning` or `error`, got `" +
              req.fail_on + "`");
      }
    } else if (key == "file") {
      req.file = expect_string(key, value);
    } else if (key == "name") {
      req.name = expect_string(key, value);
    } else if (key == "kind") {
      req.kind = expect_string(key, value);
    } else if (key == "text") {
      req.text = expect_string(key, value);
    } else if (key == "contention") {
      req.contention = expect_bool(key, value);
    } else if (key == "inputs") {
      if (!value.is_object()) {
        usage("request field `inputs` expects an object of VAR -> EXPR");
      }
      req.inputs = parse_inputs_object(value);
    } else if (key == "inputs_batch") {
      if (value.kind() != Json::Kind::Array) {
        usage("request field `inputs_batch` expects an array of "
              "VAR -> EXPR objects");
      }
      req.has_inputs_batch = true;
      for (const Json& trial : value.as_array()) {
        if (!trial.is_object()) {
          usage("each `inputs_batch` entry expects an object of "
                "VAR -> EXPR");
        }
        req.inputs_batch.push_back(parse_inputs_object(trial));
      }
    } else if (key == "inputs_stream") {
      if (value.kind() != Json::Kind::Array) {
        usage("request field `inputs_stream` expects an array of "
              "VAR -> EXPR objects");
      }
      req.has_inputs_stream = true;
      for (const Json& batch : value.as_array()) {
        if (!batch.is_object()) {
          usage("each `inputs_stream` entry expects an object of "
                "VAR -> EXPR");
        }
        req.inputs_stream.push_back(parse_inputs_object(batch));
      }
    } else {
      usage("unknown request field `" + key + "`");
    }
  }
  if (req.op.empty()) {
    usage("request needs an `op` field "
          "(ping|upload|schedule|trial|stream|check|trace|stats|shutdown)");
  }
  if (!req.design.empty() && !req.design_ref.empty()) {
    usage("give either `design` or `design_ref`, not both");
  }
  if (!req.machine.empty() && !req.machine_ref.empty()) {
    usage("give either `machine` or `machine_ref`, not both");
  }
  if (!req.inputs.empty() && req.has_inputs_batch) {
    usage("give either `inputs` or `inputs_batch`, not both");
  }
  if (req.has_inputs_stream && (!req.inputs.empty() || req.has_inputs_batch)) {
    usage("give either `inputs`, `inputs_batch`, or `inputs_stream`, "
          "not several");
  }
  return req;
}

Json ok_envelope(const Json& id, const std::string& op, int exit_code) {
  Json resp = Json::object();
  resp.add("id", id);
  resp.add("op", Json::string(op));
  resp.add("ok", Json::boolean(true));
  resp.add("exit", Json::number(exit_code));
  return resp;
}

Json error_response(const Json& id, const std::string& op, const Error& e) {
  Json resp = Json::object();
  resp.add("id", id);
  resp.add("op", Json::string(op));
  resp.add("ok", Json::boolean(false));
  resp.add("exit",
           Json::number(e.code() == ErrorCode::Usage ? 2 : 1));
  Json err = Json::object();
  err.add("code", Json::string(std::string(to_string(e.code()))));
  err.add("message", Json::string(e.message()));
  if (e.pos().valid()) {
    err.add("line", Json::number(e.pos().line));
    err.add("column", Json::number(e.pos().column));
  }
  resp.add("error", std::move(err));
  return resp;
}

Json error_response(const Json& id, const std::string& op,
                    const std::string& code, const std::string& message,
                    int exit_code) {
  Json resp = Json::object();
  resp.add("id", id);
  resp.add("op", Json::string(op));
  resp.add("ok", Json::boolean(false));
  resp.add("exit", Json::number(exit_code));
  Json err = Json::object();
  err.add("code", Json::string(code));
  err.add("message", Json::string(message));
  resp.add("error", std::move(err));
  return resp;
}

}  // namespace banger::serve
