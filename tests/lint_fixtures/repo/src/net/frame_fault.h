// Fixture copy of a test-only-module exempt file: nothing in examples/
// reaches it, and its by-name exemption must keep it silent.
#ifndef TCPDEMUX_NET_FRAME_FAULT_H_
#define TCPDEMUX_NET_FRAME_FAULT_H_

namespace tcpdemux::net {}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_FRAME_FAULT_H_
