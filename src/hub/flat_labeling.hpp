#pragma once

#include "hub/labeling.hpp"

/// \file flat_labeling.hpp
/// The former name of the flat hub-label store, now `HubLabeling`
/// (hub/labeling.hpp).

namespace hublab {

// perfbench/e2e.cpp spells this; the next benchmark PR deletes it.
using FlatHubLabeling = HubLabeling;

}  // namespace hublab
