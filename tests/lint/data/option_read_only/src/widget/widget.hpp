#pragma once

namespace cpla::widget {

struct LimitOptions {
  int depth = 3;
};

struct WidgetOptions {
  int iterations = 4;
  double step = 0.5;
  bool verbose = false;  // seeded: examples/ only reads it
  LimitOptions limits;
  int retries = 2;  // seeded: examples/ only compares it
};

int run(const WidgetOptions& options);

}  // namespace cpla::widget
