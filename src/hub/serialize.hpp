#pragma once

#include <iosfwd>
#include <string>

#include "hub/labeling.hpp"

/// \file serialize.hpp
/// Binary persistence for hub labelings.
///
/// Preprocessing is the expensive half of a hub-label deployment; this
/// stores the labels so queries can start without rebuilding.
/// Format (little-endian):
///   magic "HLAB" | u32 version | u64 n | per vertex: u64 count,
///   then count x (u32 hub, u64 dist).
/// Loading validates the magic, version, monotone hub order and bounds,
/// and that nothing follows the n-th label, throwing ParseError on any
/// corruption; each checked label is handed to HubLabeling's construction
/// loop as one row.

namespace hublab {

/// Current on-disk format version.
inline constexpr std::uint32_t kLabelingFormatVersion = 1;

void save_labeling(const HubLabeling& labeling, std::ostream& out);
HubLabeling load_labeling(std::istream& in);

/// File helpers; throw Error on I/O failure.
void save_labeling_file(const HubLabeling& labeling, const std::string& file_path);
HubLabeling load_labeling_file(const std::string& file_path);

}  // namespace hublab
