#include "nvm/byte_device.h"

#include "util/logging.h"

namespace pc::nvm {

ByteDeviceConfig
dramConfig(Bytes capacity)
{
    ByteDeviceConfig cfg;
    cfg.name = "dram";
    cfg.capacity = capacity;
    cfg.readAccessLatency = 50;
    cfg.perByte = 0;
    cfg.activePower = 100.0;
    cfg.nonVolatile = false;
    return cfg;
}

ByteDeviceConfig
pcmConfig(Bytes capacity)
{
    ByteDeviceConfig cfg;
    cfg.name = "pcm";
    cfg.capacity = capacity;
    cfg.readAccessLatency = 150;   // ~3x DRAM read.
    cfg.perByte = 1;
    cfg.activePower = 60.0;
    cfg.nonVolatile = true;
    return cfg;
}

ByteDevice::ByteDevice(const ByteDeviceConfig &cfg)
    : cfg_(cfg)
{
    pc_assert(cfg_.capacity > 0, "byte device needs positive capacity");
}

SimTime
ByteDevice::read(Bytes addr, Bytes len)
{
    pc_assert(addr + len <= cfg_.capacity, "read beyond ", cfg_.name,
              " capacity");
    const SimTime t = cfg_.readAccessLatency + SimTime(len) * cfg_.perByte;
    account(false, len, t, cfg_.activePower);
    return t;
}

} // namespace pc::nvm
