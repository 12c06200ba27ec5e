#pragma once
/// \file replay.hpp
/// The gapd request path replayed from outside, for the traced run.
///
/// serve::Server::handle_line is one call; to time its layers without
/// touching the program, ReplayServer answers the same request lines by
/// calling the public functions the server calls, in the server's order,
/// each inside a span: decode (serve::parse_request, edit_from_json),
/// validation (IncrementalTimer::check), write-ahead append
/// (serve::Journal), apply (apply_undoable), re-time
/// (IncrementalTimer::timing), reporting (sta::critical_path_json,
/// top_paths, slacks, qor::capture, lint::run_lint) and encoding
/// (compact JSON, serve::ok_reply).
///
/// It covers the success path of the commands the serve workloads send,
/// on one engine lane, and only the server branches those requests
/// reach: serve_eco never lints and serve_query never edits, so edits do
/// not re-sync a dataflow lattice, and every edit is undone at once, so
/// the undo stack never reaches its depth limit.
/// The benchmark compares every reply byte for byte with the server's
/// own reply to the same line, so a replay that drifts from the server
/// fails the run instead of timing a different program.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "harness.hpp"

namespace e2ebench {

class ReplayServer {
 public:
  /// `journal_dir`: empty disables the write-ahead journal.
  explicit ReplayServer(std::string journal_dir);
  ~ReplayServer();
  ReplayServer(const ReplayServer&) = delete;
  ReplayServer& operator=(const ReplayServer&) = delete;

  /// A `load` request, inside a serve.load span (the design AIG and the
  /// cell libraries get spans of their own). Returns the reply line, or
  /// an empty string when the replay cannot follow the request.
  std::string load(const std::string& line, Tracer& tr);
  /// Any other request the workloads send (edit, undo, timing, slacks,
  /// top_paths, qor, lint); empty string when the replay cannot follow.
  std::string handle(const std::string& line, Tracer& tr);

  /// Write-ahead journal bytes appended so far, over all sessions.
  [[nodiscard]] std::uint64_t journal_bytes() const;

  struct Session;

 private:
  std::string edit(Session& s, const std::string& id_json,
                   const gap::common::json::Value* edit_json, bool undo,
                   Tracer& tr);

  std::string journal_dir_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace e2ebench
