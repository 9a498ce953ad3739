// Fixture copy of a test-only-module exempt file: nothing in examples/
// reaches it, and its by-name exemption must keep it silent.
#ifndef TCPDEMUX_CORE_VALIDATE_H_
#define TCPDEMUX_CORE_VALIDATE_H_

namespace tcpdemux::core {}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_VALIDATE_H_
