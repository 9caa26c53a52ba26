#include "service/protocol.h"

#include <cmath>
#include <sstream>

#include "obs/json_check.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace dp::service {
namespace {

using obs::Json;
using obs::json_quote;

std::string error_response(const std::string& message) {
  return "{\"ok\":false,\"error\":" + json_quote(message) + "}";
}

/// Parses the optional "trace" field (the client-minted trace id) into
/// `trace_id`. Returns false and fills `error` with a named parse error on
/// anything but a 1-16-digit nonzero hex string -- oversized or malformed
/// ids are rejected at the wire, never propagated half-parsed.
bool parse_trace_field(const Json& request, std::uint64_t& trace_id,
                       std::string& error) {
  const Json* trace = request.find("trace");
  if (trace == nullptr) return true;
  if (trace->kind != Json::Kind::kString) {
    error = "trace parse error: \"trace\" must be a string of hex digits";
    return false;
  }
  if (trace->string.size() > 16) {
    error = "trace parse error: trace id exceeds 16 hex digits (got " +
            std::to_string(trace->string.size()) + ")";
    return false;
  }
  if (!obs::parse_trace_id(trace->string, trace_id)) {
    error = "trace parse error: \"" + trace->string +
            "\" is not a nonzero hex trace id";
    return false;
  }
  return true;
}

std::string format_number(double v) {
  // Ticket ids and counters are integral; render them without a fraction so
  // clients (and humans) see "id":7, not "id":7.000000.
  std::ostringstream out;
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    out << static_cast<long long>(v);
  } else {
    out << v;
  }
  return out.str();
}

std::string status_response(std::uint64_t id, const QueryStatus& status) {
  std::ostringstream out;
  out << "{\"ok\":true,\"id\":" << id << ",\"state\":"
      << json_quote(to_string(status.state));
  if (status.state == QueryState::kDone) {
    out << ",\"exit_code\":" << status.result.exit_code
        << ",\"out\":" << json_quote(status.result.out)
        << ",\"err\":" << json_quote(status.result.err);
    if (!status.result.profile_json.empty()) {
      // Pre-rendered by the service at completion time (single-line JSON).
      out << ",\"profile\":" << status.result.profile_json;
    }
  }
  out << ",\"cache_hit\":" << (status.cache_hit ? "true" : "false")
      << ",\"coalesced\":" << (status.coalesced ? "true" : "false")
      << ",\"queue_us\":" << format_number(status.queue_us)
      << ",\"exec_us\":" << format_number(status.exec_us) << "}";
  return out.str();
}

std::string handle_submit(DiagnosisService& service, const Json& request) {
  Query query;
  query.scenario = request.get_string("scenario");
  query.program_text = request.get_string("program");
  query.log_text = request.get_string("log");
  query.stream = request.get_string("stream");
  query.bad = request.get_string("bad");
  query.good = request.get_string("good");
  query.auto_reference = request.get_bool("auto_reference");
  query.minimize = request.get_bool("minimize");
  query.bypass_cache = request.get_bool("bypass_cache");
  std::string trace_error;
  if (!parse_trace_field(request, query.trace_id, trace_error)) {
    return error_response(trace_error);
  }

  const SubmitOutcome outcome = service.submit(query);
  if (!outcome.ok()) {
    std::ostringstream out;
    out << "{\"ok\":false,\"shed\":" << (outcome.shed ? "true" : "false")
        << ",\"error\":" << json_quote(outcome.error) << "}";
    return out.str();
  }
  std::ostringstream out;
  out << "{\"ok\":true,\"id\":" << outcome.id << "}";
  return out.str();
}

std::string handle_status(DiagnosisService& service, const Json& request,
                          bool block) {
  const Json* id_field = request.find("id");
  if (id_field == nullptr || id_field->kind != Json::Kind::kNumber) {
    return error_response("missing numeric \"id\"");
  }
  const auto id = static_cast<std::uint64_t>(id_field->number);
  const std::optional<QueryStatus> status =
      block ? service.wait(id) : service.poll(id);
  if (!status) return error_response("unknown id " + std::to_string(id));
  return status_response(id, *status);
}

std::string handle_cancel(DiagnosisService& service, const Json& request) {
  const Json* id_field = request.find("id");
  if (id_field == nullptr || id_field->kind != Json::Kind::kNumber) {
    return error_response("missing numeric \"id\"");
  }
  const auto id = static_cast<std::uint64_t>(id_field->number);
  const bool cancelled = service.cancel(id);
  return std::string("{\"ok\":true,\"cancelled\":") +
         (cancelled ? "true" : "false") + "}";
}

std::string handle_probe(DiagnosisService& service, const Json& request) {
  const std::string scenario = request.get_string("scenario");
  const std::string tuple = request.get_string("tuple");
  if (scenario.empty() || tuple.empty()) {
    return error_response("probe needs \"scenario\" and \"tuple\"");
  }
  std::uint64_t trace_id = 0;
  std::string trace_error;
  if (!parse_trace_field(request, trace_id, trace_error)) {
    return error_response(trace_error);
  }
  bool live = false;
  const SubmitOutcome outcome = service.probe(scenario, tuple, live, trace_id);
  if (!outcome.ok()) return error_response(outcome.error);
  return std::string("{\"ok\":true,\"live\":") + (live ? "true" : "false") +
         "}";
}

/// A stream's "snapshots" are its queries: each drains the warm engine.
std::string render_stream_stats(const SessionStats& s) {
  std::ostringstream out;
  out << "{\"events\":" << s.events
      << ",\"live_rebuilds\":" << s.live_rebuilds
      << ",\"snapshots\":" << s.queries
      << ",\"resident_bytes\":" << s.resident_bytes
      << ",\"watermark\":" << s.watermark << "}";
  return out.str();
}

std::string ingest_response(const IngestOutcome& outcome) {
  if (!outcome.ok) return error_response(outcome.error);
  return "{\"ok\":true,\"accepted\":" + std::to_string(outcome.accepted) +
         ",\"stream\":" + render_stream_stats(outcome.stream) + "}";
}

std::string handle_ingest_open(DiagnosisService& service,
                               const Json& request) {
  const std::string stream = request.get_string("stream");
  if (stream.empty()) return error_response("ingest_open needs \"stream\"");
  return ingest_response(service.open_stream(
      stream, request.get_string("scenario"), request.get_string("program")));
}

std::string handle_ingest(DiagnosisService& service, const Json& request) {
  const std::string stream = request.get_string("stream");
  if (stream.empty()) return error_response("ingest needs \"stream\"");
  return ingest_response(service.ingest(stream, request.get_string("events")));
}

std::string handle_stats(DiagnosisService& service) {
  const ServiceStats stats = service.stats();
  std::ostringstream out;
  out << "{\"ok\":true,\"stats\":{"
      << "\"submitted\":" << stats.submitted
      << ",\"completed\":" << stats.completed << ",\"shed\":" << stats.shed
      << ",\"cancelled\":" << stats.cancelled << ",\"runs\":" << stats.runs
      << ",\"cache_hits\":" << stats.cache_hits
      << ",\"cache_misses\":" << stats.cache_misses
      << ",\"coalesced\":" << stats.coalesced
      << ",\"queue_depth\":" << stats.queue_depth
      << ",\"queue_capacity\":" << stats.queue_capacity
      << ",\"shards\":" << stats.shards << ",\"shard_queue_depths\":[";
  for (std::size_t i = 0; i < stats.shard_queue_depths.size(); ++i) {
    if (i != 0) out << ",";
    out << stats.shard_queue_depths[i];
  }
  out << "]"
      << ",\"cache_size\":" << stats.cache_size
      << ",\"cache_evictions\":" << stats.cache_evictions
      << ",\"sessions\":" << stats.sessions
      << ",\"warm_sessions\":" << stats.warm_sessions
      << ",\"warm_resident_bytes\":" << stats.warm_resident_bytes
      << ",\"per_session\":{";
  bool first = true;
  for (const auto& [key, s] : stats.per_session) {
    if (!first) out << ",";
    first = false;
    out << json_quote(key) << ":{\"queries\":" << s.queries
        << ",\"warm_hits\":" << s.warm_hits
        << ",\"cold_replays\":" << s.cold_replays << ",\"probes\":" << s.probes
        << "}";
  }
  out << "}"
      << ",\"ingest\":{\"streams\":" << stats.ingest_streams
      << ",\"events\":" << stats.ingest_events
      << ",\"resident_bytes\":" << stats.ingest_resident_bytes
      << ",\"per_stream\":{";
  first = true;
  for (const auto& [name, s] : stats.per_stream) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":" << render_stream_stats(s);
  }
  out << "}}}}";
  return out.str();
}

}  // namespace

std::string handle_request(DiagnosisService& service, const std::string& line,
                           bool& shutdown_requested) {
  std::string parse_error;
  const std::optional<Json> request = Json::parse(line, parse_error);
  if (!request) return error_response("bad request: " + parse_error);
  if (request->kind != Json::Kind::kObject) {
    return error_response("bad request: expected a JSON object");
  }
  const std::string op = request->get_string("op");
  try {
    if (op == "submit") return handle_submit(service, *request);
    if (op == "poll") return handle_status(service, *request, /*block=*/false);
    if (op == "wait") return handle_status(service, *request, /*block=*/true);
    if (op == "cancel") return handle_cancel(service, *request);
    if (op == "probe") return handle_probe(service, *request);
    if (op == "ingest_open") return handle_ingest_open(service, *request);
    if (op == "ingest") return handle_ingest(service, *request);
    if (op == "stats") return handle_stats(service);
    if (op == "flightrec") {
      // Already single-line JSON, embeddable verbatim in the NDJSON reply.
      return "{\"ok\":true,\"flightrec\":" +
             obs::Recorder::instance().to_json() + "}";
    }
    if (op == "slowz") {
      // The slow-query journal (slowlog.h), same document /slowz serves.
      return "{\"ok\":true,\"slowz\":" + service.slowz_json() + "}";
    }
    if (op == "shutdown") {
      shutdown_requested = true;
      return "{\"ok\":true,\"shutting_down\":true}";
    }
  } catch (const std::exception& e) {
    return error_response(std::string("internal error: ") + e.what());
  }
  return error_response("unknown op \"" + op + "\"");
}

}  // namespace dp::service
