// Line-protocol front end for QueryEngine (`swope_cli serve`).
//
// Reads one request per line from an input stream and writes exactly one
// JSON object per request to the output stream, so the engine is drivable
// end-to-end from a shell pipe or a socket relay. Blank lines and
// #-comments are skipped. Requests:
//
//   load name=<id> path=<file> [max-support=U]
//        [sketch-epsilon=E] [sketch-threshold=U] [mmap=0|1]
//   query dataset=<id> kind=<kind> [k=N] [eta=T] [target=COL]
//         [epsilon=E] [seed=N] [pf=P] [m0=N] [growth=G]
//         [sketch-threshold=U] [sketch-epsilon=E] [sequential=0|1]
//         [timeout-ms=N] [trace=0|1] [profile=0|1]
//   ingest dataset=<id> [row=v1,v2,...] [csv=<path>]
//   unload name=<id>
//   datasets
//   stats
//   events [n=N]
//   metrics
//   quit
//
// `trace=1` attaches a per-round "trace" array to the query response and
// `profile=1` a per-stage "profile" breakdown (see docs/OBSERVABILITY.md
// for both schemas); with both off the response is byte-identical to one
// from an engine without observability. `events` returns the engine's
// most recent structured events (admissions, completions, slow-query
// captures, ...), newest-last, at most n of them. `metrics` returns the
// engine's MetricsRegistry both as escaped Prometheus exposition text
// ("prometheus") and as a nested JSON snapshot ("snapshot").
//
// `sketch-epsilon` > 0 enables the count-min path for candidates whose
// support exceeds `sketch-threshold` (docs/SKETCH.md); the query
// response's stats block reports the route taken as "path":"sketch" or
// "path":"exact". `ingest` appends rows to a resident dataset -- inline
// (`row=`, comma-separated, no spaces) and/or from a headerless CSV file
// (`csv=`) -- and re-fingerprints it, so later queries see the new
// contents and never a stale cached answer. `mmap=1` loads an SWPB file
// through the mapped path (src/table/binary_io.h): page-aligned column
// payloads stay OS-paged instead of heap-resident, and the load response
// and `stats` report the split as "resident_bytes" / "mapped_bytes"
// (docs/STORAGE.md).
//
// Each op takes exactly the keys listed above: any other key is an
// InvalidArgument naming the first one on the line, so a misspelt setting
// never runs at its default. Only `row=` may repeat.
//
// <kind> is one of entropy-topk, entropy-filter, mi-topk, mi-filter,
// nmi-topk, nmi-filter. Successful responses carry "ok":true; failures
// carry "ok":false plus the Status code and message -- still as JSON on
// `out`, so the response stream stays line-aligned with the requests and
// machine-parseable throughout.

#ifndef SWOPE_ENGINE_SERVE_H_
#define SWOPE_ENGINE_SERVE_H_

#include <istream>
#include <ostream>
#include <string>

#include "src/engine/query_engine.h"

namespace swope {

/// Escapes `text` for inclusion inside a JSON string literal.
std::string JsonEscape(const std::string& text);

/// Renders a response as a single-line JSON object ("ok":true form).
/// Deterministic: equal responses render byte-identically.
std::string QueryResponseToJson(const QueryResponse& response);

/// Renders a failure as a single-line JSON object ("ok":false form).
std::string StatusToJson(const Status& status);

/// Parses and executes one request line against `engine`, returning the
/// JSON response line (without trailing newline). Unknown or malformed
/// requests yield an "ok":false response rather than an error.
/// Sets *quit when the line is the quit request.
std::string HandleRequestLine(QueryEngine& engine, const std::string& line,
                              bool* quit);

/// Runs the read-eval-print loop until EOF or `quit`. Returns the number
/// of failed requests (0 means every request succeeded).
uint64_t ServeLoop(QueryEngine& engine, std::istream& in, std::ostream& out);

}  // namespace swope

#endif  // SWOPE_ENGINE_SERVE_H_
