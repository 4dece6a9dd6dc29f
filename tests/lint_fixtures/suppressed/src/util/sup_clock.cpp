// Fixture: inline suppression marker on the line above.

namespace fixture {

long long stamp() {
  // hublab-lint-allow(wall-clock)
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
