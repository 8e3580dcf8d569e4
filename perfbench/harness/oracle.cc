#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "parallel.h"
#include "src/baselines/exact.h"
#include "src/core/query_result.h"
#include "src/eval/accuracy.h"
#include "src/table/append.h"
#include "src/table/binary_io.h"
#include "src/table/fingerprint.h"

namespace perfbench {

using swope::QueryKind;
using swope::Result;
using swope::Status;
using swope::Table;

bool IsMi(QueryKind kind) {
  return kind == QueryKind::kMiTopK || kind == QueryKind::kMiFilter;
}

std::string TruthKey(const WorkloadDef& workload, size_t op,
                     const Request& request) {
  std::string key = workload.donor_rows > 0 ? "s" + std::to_string(op)
                                            : "d" + request.dataset;
  if (IsMi(request.kind)) key += ":t" + std::to_string(request.target);
  return key;
}

swope::Result<Truth> ComputeTruth(const swope::Table& table,
                                  const Request& request) {
  const bool mi = IsMi(request.kind);
  const size_t h = table.num_columns();
  auto ranked = mi ? swope::ExactTopKMi(table, request.target, h - 1)
                   : swope::ExactTopKEntropy(table, h);
  if (!ranked.ok()) return ranked.status();
  Truth truth;
  truth.rows = table.num_rows();
  truth.scores.assign(h, 0.0);
  for (const swope::AttributeScore& item : ranked->items) {
    truth.scores[item.index] = item.estimate;
  }
  return truth;
}

std::string TruthPath(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed,
                      size_t ops) {
  return data_dir + "/" + workload.name + "-truth-s" + std::to_string(seed) +
         "-n" + std::to_string(ops) + ".txt";
}

namespace {

Result<Table> LoadDataset(const std::string& path) {
  SWOPE_ASSIGN_OR_RETURN(Table table, swope::ReadBinaryTableFile(path));
  return table.DropHighSupportColumns(kMaxSupport);
}

}  // namespace

Status GenerateTruths(const std::string& data_dir,
                      const WorkloadDef& workload, uint64_t seed,
                      size_t ops_count) {
  const std::string path = TruthPath(data_dir, workload, seed, ops_count);
  if (std::filesystem::exists(path)) return Status::OK();
  SWOPE_ASSIGN_OR_RETURN(std::vector<Op> ops,
                         MakeOps(workload, seed, ops_count));
  const size_t first = workload.warmup_ops;
  std::vector<std::string> keys;
  std::vector<Truth> truths;
  uint64_t final_fingerprint = 0;

  if (workload.donor_rows == 0) {
    std::vector<Table> tables;
    for (const DatasetInput& input : workload.datasets) {
      SWOPE_ASSIGN_OR_RETURN(
          Table table,
          LoadDataset(DatasetPath(data_dir, workload, input, seed)));
      tables.push_back(std::move(table));
    }
    std::vector<std::pair<size_t, const Request*>> work;
    std::set<std::string> seen;
    for (size_t i = first; i < ops.size(); ++i) {
      for (const Request& request : ops[i].requests) {
        const std::string key = TruthKey(workload, i, request);
        if (!seen.insert(key).second) continue;
        size_t d = 0;
        while (workload.datasets[d].name != request.dataset) ++d;
        keys.push_back(key);
        work.emplace_back(d, &request);
      }
    }
    truths.resize(work.size());
    SWOPE_RETURN_NOT_OK(ParallelFor(work.size(), [&](size_t w) -> Status {
      SWOPE_ASSIGN_OR_RETURN(truths[w],
                             ComputeTruth(tables[work[w].first],
                                          *work[w].second));
      return Status::OK();
    }));
  } else {
    // Replays the engine's ingests: state i is the base table plus
    // batches 0..i. Each thread replays up to its first state, then
    // checks a contiguous range of states.
    SWOPE_ASSIGN_OR_RETURN(
        const Table base,
        LoadDataset(DatasetPath(data_dir, workload, workload.datasets[0], seed)));
    SWOPE_ASSIGN_OR_RETURN(const Table donor,
                           swope::ReadBinaryTableFile(
                               DonorPath(data_dir, workload, seed)));
    const size_t measured = ops.size() - first;
    keys.resize(measured);
    truths.resize(measured);
    SWOPE_RETURN_NOT_OK(ParallelFor(kHarnessThreads, [&](size_t t) -> Status {
      const size_t begin = first + t * measured / kHarnessThreads;
      const size_t end = first + (t + 1) * measured / kHarnessThreads;
      Table table = base;
      for (size_t i = 0; i < end; ++i) {
        SWOPE_ASSIGN_OR_RETURN(
            table, swope::AppendRowsToTable(
                       table, MakeBatch(donor, ops[i].ingest_batch)));
        if (i < begin) continue;
        keys[i - first] = TruthKey(workload, i, ops[i].requests[0]);
        SWOPE_ASSIGN_OR_RETURN(truths[i - first],
                               ComputeTruth(table, ops[i].requests[0]));
      }
      if (end == ops.size()) final_fingerprint = swope::TableFingerprint(table);
      return Status::OK();
    }));
  }

  const std::string partial = path + ".partial";
  {
    std::ofstream out(partial);
    out << "final_fingerprint " << final_fingerprint << "\n";
    char number[32];
    for (size_t i = 0; i < keys.size(); ++i) {
      out << keys[i] << " " << truths[i].rows << " " << truths[i].scores.size();
      for (double score : truths[i].scores) {
        std::snprintf(number, sizeof(number), "%.17g", score);
        out << " " << number;
      }
      out << "\n";
    }
    out.close();
    if (!out) return Status::IOError("cannot write " + partial);
  }
  std::error_code error;
  std::filesystem::rename(partial, path, error);
  if (error) return Status::IOError("rename " + partial + ": " + error.message());
  return Status::OK();
}

Status Oracle::Load(const std::string& path) {
  std::ifstream in(path);
  std::string word;
  if (!(in >> word >> final_fingerprint_) || word != "final_fingerprint") {
    return Status::Corruption("truth file " + path + " has no header");
  }
  std::string key;
  while (in >> key) {
    Truth truth;
    size_t h = 0;
    if (!(in >> truth.rows >> h)) {
      return Status::Corruption("truth file " + path + ": bad entry " + key);
    }
    truth.scores.resize(h);
    for (double& score : truth.scores) {
      if (!(in >> word)) {
        return Status::Corruption("truth file " + path + ": short entry");
      }
      score = std::strtod(word.c_str(), nullptr);
    }
    loaded_[key] = std::move(truth);
  }
  return Status::OK();
}

Result<const Truth*> Oracle::Get(const std::string& key,
                                 uint64_t rows) const {
  const auto it = loaded_.find(key);
  if (it == loaded_.end()) return Status::NotFound("no exact scores for " + key);
  if (it->second.rows != rows) {
    return Status::Internal("exact scores for " + key + " are for " +
                            std::to_string(it->second.rows) +
                            " rows, table has " + std::to_string(rows));
  }
  return &it->second;
}

bool CheckAnswer(const Json& reply, const Request& request,
                 const Truth& truth, std::string* why) {
  if (!reply.Bool("ok")) {
    const Json* error = reply.Find("error");
    *why = "not ok: " + (error != nullptr ? error->text : std::string("?"));
    return false;
  }
  const Json* items = reply.Find("items");
  if (items == nullptr || items->type != Json::Type::kArray) {
    *why = "reply has no items";
    return false;
  }
  const size_t h = truth.scores.size();
  const bool mi = IsMi(request.kind);
  std::vector<size_t> eligible;
  for (size_t j = 0; j < h; ++j) {
    if (!mi || j != request.target) eligible.push_back(j);
  }

  std::vector<swope::AttributeScore> returned;
  std::set<size_t> seen;
  for (const Json& item : items->items) {
    const double index = item.Number("index", -1.0);
    if (index < 0.0 || index >= static_cast<double>(h) ||
        (mi && static_cast<size_t>(index) == request.target) ||
        !seen.insert(static_cast<size_t>(index)).second) {
      *why = "item names an ineligible or repeated column";
      return false;
    }
    swope::AttributeScore score;
    score.index = static_cast<size_t>(index);
    score.estimate = item.Number("estimate");
    score.lower = item.Number("lower");
    score.upper = item.Number("upper");
    returned.push_back(score);
  }

  const bool topk = request.kind == QueryKind::kEntropyTopK ||
                    request.kind == QueryKind::kMiTopK;
  if (topk) {
    if (returned.size() != std::min(request.k, eligible.size())) {
      *why = "top-k answer has " + std::to_string(returned.size()) +
             " items for k=" + std::to_string(request.k);
      return false;
    }
    if (!swope::SatisfiesApproxTopK(returned, truth.scores, eligible,
                                    request.k, request.epsilon)) {
      *why = "violates Definition 5";
      return false;
    }
    return true;
  }
  swope::FilterResult filter;
  filter.items.assign(returned.begin(), returned.end());
  if (!std::is_sorted(filter.items.begin(), filter.items.end(),
                      [](const swope::AttributeScore& a,
                         const swope::AttributeScore& b) {
                        return a.index < b.index;
                      })) {
    *why = "filter answer is not in column order";
    return false;
  }
  if (!swope::SatisfiesApproxFilter(filter, truth.scores, eligible,
                                    request.eta, request.epsilon)) {
    *why = "violates Definition 6";
    return false;
  }
  return true;
}

std::string CacheComparable(const std::string& reply) {
  std::string out = reply;
  const std::string hit = "\"cache_hit\":true";
  if (const size_t at = out.find(hit); at != std::string::npos) {
    out.replace(at, hit.size(), "\"cache_hit\":false");
  }
  // The profile block is the reply's last member.
  if (const size_t at = out.find(",\"profile\":{"); at != std::string::npos) {
    out.erase(at);
    out += "}";
  }
  return out;
}

}  // namespace perfbench
