// Fixture: assert-guard -- a mutating API with no precondition check.

namespace fixture {

struct Box {
  int value = 0;
  void set_value(int v) { value = v; }
};

namespace {

// Internal linkage: a helper, not a public API, so assert-guard skips it.
void set_both(Box& a, Box& b, int v) {
  a.value = v;
  b.value = v;
}

}  // namespace

}  // namespace fixture
