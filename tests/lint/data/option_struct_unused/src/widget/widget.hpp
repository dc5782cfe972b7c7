#pragma once

namespace cpla::widget {

// Seeded: no function takes it and no type holds it. Its field passes
// option-unset only because Canvas has a field of the same name.
struct LegacyOptions {
  double scale = 1.0;
};

struct WidgetOptions {
  int iterations = 4;
};

struct Canvas {
  double scale = 1.0;
};

int run(const WidgetOptions& options, const Canvas& canvas);

}  // namespace cpla::widget
