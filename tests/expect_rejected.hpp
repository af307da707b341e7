#pragma once

// The check every argument-validation test shares: a call must throw
// std::invalid_argument whose message names each expected part (the
// function or field at fault, the tenant, the offending value).

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>

namespace scan {

/// Expects `action` to throw std::invalid_argument naming every `part`.
template <class Action>
void ExpectRejected(Action action, std::initializer_list<const char*> parts) {
  try {
    action();
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    for (const char* part : parts) {
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << e.what() << " does not name " << part;
    }
  }
}

}  // namespace scan
