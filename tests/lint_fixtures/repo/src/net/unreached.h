// Fixture: test-only-module — no fixture examples/ source includes this
// header, so it is a module only tests could call and must be reported.
#ifndef TCPDEMUX_NET_UNREACHED_H_
#define TCPDEMUX_NET_UNREACHED_H_

namespace tcpdemux::net {}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_UNREACHED_H_
