//===- perfbench/Tracer.cpp - In-memory spans for the traced run ----------===//
//
// Part of the warp-swp benchmark. See Tracer.h.
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <algorithm>
#include <cassert>
#include <fstream>

using namespace perfbench;

Tracer::Tracer(size_t MaxKept) : Epoch(Clock::now()), MaxKept(MaxKept) {}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int Tracer::beginDetached(const char *Name, uint64_t Id) {
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Detached = true;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Pass.push_back(S);
  return static_cast<int>(Pass.size() - 1);
}

int Tracer::begin(const char *Name, uint64_t Id) {
  int H = beginDetached(Name, Id);
  Pass[H].Detached = false;
  Open.push_back(H);
  return H;
}

void Tracer::end(int H) {
  assert(H >= 0 && static_cast<size_t>(H) < Pass.size() && "stale span");
  Pass[H].EndNs = nowNs();
  auto It = std::find(Open.rbegin(), Open.rend(), H);
  if (It != Open.rend())
    Open.erase(std::next(It).base());
}

std::map<std::string, double> Tracer::finishPass() {
  assert(Open.empty() && "pass finished with open spans");
  // Children's intervals per parent, merged to their union so that
  // overlapping siblings (concurrent requests) are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(Pass.size());
  for (const Span &S : Pass)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});

  std::map<std::string, double> Self;
  for (size_t I = 0; I != Pass.size(); ++I) {
    const Span &S = Pass[I];
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0, CurLo = 0, CurHi = -1;
    for (auto [Lo, Hi] : C) {
      Lo = std::max(Lo, S.StartNs);
      Hi = std::min(Hi, S.EndNs);
      if (Hi <= Lo)
        continue;
      if (Lo > CurHi) {
        Covered += std::max<int64_t>(0, CurHi - CurLo);
        CurLo = Lo;
        CurHi = Hi;
      } else {
        CurHi = std::max(CurHi, Hi);
      }
    }
    Covered += std::max<int64_t>(0, CurHi - CurLo);
    Self[S.Name] += static_cast<double>(S.EndNs - S.StartNs - Covered) * 1e-9;
  }

  // Keep the pass whole or not at all, so kept parents stay resolvable.
  if (Kept.size() + Pass.size() <= MaxKept) {
    int32_t Base = static_cast<int32_t>(Kept.size());
    for (Span S : Pass) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Kept.push_back(S);
    }
  } else {
    Dropped += Pass.size();
  }
  Pass.clear();
  return Self;
}

static void writeEscaped(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << ' ';
    else
      OS << C;
  }
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              const std::string &ProcessName) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  OS << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"";
  writeEscaped(OS, ProcessName);
  OS << "\"}}";
  OS.setf(std::ios::fixed);
  OS.precision(3);
  for (size_t I = 0; I != Kept.size(); ++I) {
    const Span &S = Kept[I];
    // Nested spans share the main track as complete events; detached
    // (overlapping) request spans would break the stack discipline that
    // needs, so they become async begin/end pairs keyed by span index.
    double Ts = static_cast<double>(S.StartNs) / 1000.0;
    double End = static_cast<double>(S.EndNs) / 1000.0;
    auto Head = [&](const char *Ph, double At) {
      OS << ",\n{\"name\": \"";
      writeEscaped(OS, S.Name);
      OS << "\", \"cat\": \"perfbench\", \"ph\": \"" << Ph
         << "\", \"pid\": 1, \"tid\": 1, \"ts\": " << At;
    };
    if (S.Detached) {
      Head("b", Ts);
      OS << ", \"id\": " << I << ", \"args\": {\"id\": " << S.Id
         << ", \"parent\": " << S.Parent << "}}";
      Head("e", End);
      OS << ", \"id\": " << I << "}";
      continue;
    }
    Head("X", Ts);
    OS << ", \"dur\": " << End - Ts << ", \"args\": {\"id\": " << S.Id
       << ", \"span\": " << I << ", \"parent\": " << S.Parent << "}}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
