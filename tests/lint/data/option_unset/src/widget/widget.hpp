#pragma once

#include <functional>

namespace cpla::widget {

struct WidgetOptions {
  static constexpr int kMaxIterations = 64;  // not a field
  struct Limits {
    int depth = 3;  // nested type: not a WidgetOptions field
  };

  int iterations = 4;
  double step = 0.5;  // seeded: nothing outside src/ sets it
  bool fast = true;
  std::function<void(int)> on_iteration;
  // cpla-lint: allow(option-unset) -- exempt on purpose: the self-test proves the allow works
  double decay = 0.15;

  bool valid() const { return iterations > 0 && iterations <= kMaxIterations; }
};

}  // namespace cpla::widget
