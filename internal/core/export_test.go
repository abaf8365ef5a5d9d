package core

import "socksdirect/internal/shm"

// TXRing exposes a socket's send ring to the external tests.
func TXRing(s *Socket) *shm.Ring { return s.side.TX }
