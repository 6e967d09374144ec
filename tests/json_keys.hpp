// Shape of a JSON document: the set of its key paths, values ignored.
//
// Paths join keys with '.', and array elements add "[]" ("service.
// telemetry.top[].tenant"). Two documents with equal key sets have the same
// shape whatever their values — what the fixed-shape schema tests compare.
// Expects well-formed input (obs::JsonWriter output).
#pragma once

#include <set>
#include <string>
#include <vector>

namespace rtad::test {

inline std::set<std::string> json_key_paths(const std::string& doc) {
  struct Scope {
    std::string path;
    bool array = false;
  };
  std::set<std::string> paths;
  std::vector<Scope> open;
  std::string last_key;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"') {
      std::string s;
      for (++i; doc[i] != '"'; ++i) {
        if (doc[i] == '\\') ++i;
        s += doc[i];
      }
      const std::size_t next = doc.find_first_not_of(" \t\r\n", i + 1);
      if (next != std::string::npos && doc[next] == ':') {
        const std::string& at = open.back().path;
        last_key = at.empty() ? s : at + "." + s;
        paths.insert(last_key);
      }
    } else if (c == '{' || c == '[') {
      std::string path;
      if (!open.empty()) {
        path = open.back().array ? open.back().path + "[]" : last_key;
      }
      open.push_back({std::move(path), c == '['});
    } else if (c == '}' || c == ']') {
      open.pop_back();
    }
  }
  return paths;
}

}  // namespace rtad::test
