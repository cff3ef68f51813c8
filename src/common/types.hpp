// Core identifier and size types shared by every colscore subsystem.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colscore {

/// Index of a player in the population [0, n_players).
using PlayerId = std::uint32_t;
/// Index of an object in the universe [0, n_objects).
using ObjectId = std::uint32_t;

inline constexpr PlayerId kInvalidPlayer = static_cast<PlayerId>(-1);
inline constexpr ObjectId kInvalidObject = static_cast<ObjectId>(-1);

/// "Player `author` claims its preference for `object` is `value`": the
/// bulletin board's probe-report record.
struct ProbeReport {
  PlayerId author = kInvalidPlayer;
  ObjectId object = kInvalidObject;
  bool value = false;
};

}  // namespace colscore
